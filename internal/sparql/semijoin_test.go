package sparql

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"elinda/internal/rdf"
	"elinda/internal/store"
)

// semiJoinFixture builds a store where ?s <p> ?o (1500 rows) plans
// before ?s a <C> (3000 instances), so the class check is a semi-join
// step fed by every ?s p ?o candidate. The overlay holds every state the
// set build must merge: tombstoned base type triples, a sorted delta and
// a tail of new instances, an overlay triple deleted again, and a
// deleted base triple inserted again.
func semiJoinFixture(t *testing.T) *store.Store {
	t.Helper()
	st := store.New(1 << 14)
	var ts []rdf.Triple
	for i := 0; i < 3000; i++ {
		inst := ex(fmt.Sprintf("i%d", i))
		ts = append(ts, rdf.Triple{S: inst, P: rdf.TypeIRI, O: ex("C")})
		if i%2 == 0 {
			ts = append(ts, rdf.Triple{S: inst, P: ex("p"), O: ex(fmt.Sprintf("v%d", i%41))})
		}
	}
	if _, err := st.Load(ts); err != nil {
		t.Fatal(err)
	}
	var d store.Delta
	for i := 0; i < 3000; i += 6 {
		d.Delete(rdf.Triple{S: ex(fmt.Sprintf("i%d", i)), P: rdf.TypeIRI, O: ex("C")})
	}
	for i := 0; i < 400; i++ {
		inst := ex(fmt.Sprintf("j%d", i))
		d.Insert(rdf.Triple{S: inst, P: ex("p"), O: ex("w")})
		if i%3 != 0 {
			d.Insert(rdf.Triple{S: inst, P: rdf.TypeIRI, O: ex("C")})
		}
	}
	mustApply(st, d)
	for i := 0; i < 30; i++ {
		inst := ex(fmt.Sprintf("k%d", i))
		st.Add(rdf.Triple{S: inst, P: ex("p"), O: ex("w")})
		st.Add(rdf.Triple{S: inst, P: rdf.TypeIRI, O: ex("C")})
	}
	mustApply(st, store.DeltaOf(
		rdf.Delete(rdf.Triple{S: ex("j1"), P: rdf.TypeIRI, O: ex("C")}),
		rdf.Delete(rdf.Triple{S: ex("k1"), P: rdf.TypeIRI, O: ex("C")}),
		rdf.Insert(rdf.Triple{S: ex("i12"), P: rdf.TypeIRI, O: ex("C")}),
	))
	return st
}

const semiJoinQuery = `SELECT ?s ?o WHERE { ?s a <http://example.org/C> . ?s <http://example.org/p> ?o . }`

// TestSemiJoinOverlay: a semi-join step over tombstones, delta and tail
// returns the oracle's rows.
func TestSemiJoinOverlay(t *testing.T) {
	st := semiJoinFixture(t)
	e := NewEngine(st)
	rep, err := e.Explain(context.Background(), semiJoinQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Steps) != 2 || rep.Steps[1].Kind != "semijoin" || rep.Steps[1].Var != "s" {
		t.Fatalf("plan:\n%s\nwant a scan of ?s p ?o, then a semi-join on ?s", rep)
	}
	want, err := newOracle(st).Query(context.Background(), semiJoinQuery)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Query(context.Background(), semiJoinQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !sameSolutions(res.Rows, want.Rows) {
		t.Fatalf("%d rows, oracle %d", len(res.Rows), len(want.Rows))
	}
}

// TestSemiJoinReadsBoundSnapshot: the semi-join set comes from the
// snapshot the execution bound, even when the store has moved on before
// the first probe.
func TestSemiJoinReadsBoundSnapshot(t *testing.T) {
	st := semiJoinFixture(t)
	e := NewEngine(st)
	q, err := Parse(semiJoinQuery)
	if err != nil {
		t.Fatal(err)
	}
	snap := st.Snapshot()
	want, err := newOracle(st).executeOn(context.Background(), q, snap)
	if err != nil {
		t.Fatal(err)
	}
	// Writes after the bind that a fresh snapshot would see.
	var d store.Delta
	for i := 0; i < 3000; i += 4 {
		d.Delete(rdf.Triple{S: ex(fmt.Sprintf("i%d", i)), P: rdf.TypeIRI, O: ex("C")})
	}
	for i := 0; i < 400; i += 3 {
		d.Insert(rdf.Triple{S: ex(fmt.Sprintf("j%d", i)), P: rdf.TypeIRI, O: ex("C")})
	}
	mustApply(st, d)
	env := newExecEnv(snap)
	rows, slots, err := e.evalGroupIDs(context.Background(), q.Where, env)
	if err != nil {
		t.Fatal(err)
	}
	proj, vars, err := e.finishIDs(context.Background(), q, rows, slots, env)
	if err != nil {
		t.Fatal(err)
	}
	res := env.table(proj, vars).Result()
	if !sameSolutions(res.Rows, want.Rows) {
		t.Fatalf("%d rows, the bound snapshot has %d", len(res.Rows), len(want.Rows))
	}
}

// TestSemiJoinGate: a step expected to probe a few rows against a long
// posting list keeps probing the index; the set only pays for itself
// over many probes.
func TestSemiJoinGate(t *testing.T) {
	st := store.New(1 << 14)
	var ts []rdf.Triple
	for i := 0; i < 5000; i++ {
		ts = append(ts, rdf.Triple{S: ex(fmt.Sprintf("i%d", i)), P: rdf.TypeIRI, O: ex("C")})
	}
	ts = append(ts, rdf.Triple{S: ex("i7"), P: ex("p"), O: ex("v")})
	if _, err := st.Load(ts); err != nil {
		t.Fatal(err)
	}
	rep, err := NewEngine(st).Explain(context.Background(),
		`SELECT ?s WHERE { ?s a <http://example.org/C> . ?s <http://example.org/p> ?o . }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Steps) != 2 || rep.Steps[1].Kind != "scan" {
		t.Fatalf("plan:\n%s\nwant the one-row class check probed, not a semi-join", rep)
	}
	if !semiJoinPays(1000, 5000) || semiJoinPays(1, 5000) {
		t.Fatal("gate: many probes pay, one probe does not")
	}
}

// TestSemiSetOutOfRange: IDs past the bitmap, query-local overflow IDs
// among them, are absent.
func TestSemiSetOutOfRange(t *testing.T) {
	st := semiJoinFixture(t)
	snap := st.Snapshot()
	c := mustID(t, snap.Dict(), ex("C"))
	s := &semiSet{want: [3]rdf.ID{rdf.NoID, snap.TypeID(), c}}
	members := snap.Subjects(snap.TypeID(), c)
	for _, id := range []rdf.ID{members[len(members)-1] + 1, overflowBase, overflowBase + 7, ^rdf.ID(0)} {
		if in, err := s.contains(context.Background(), snap, id); err != nil || in {
			t.Errorf("id %d: in=%v err=%v, want absent", id, in, err)
		}
	}
	for _, id := range members {
		if in, _ := s.contains(context.Background(), snap, id); !in {
			t.Fatalf("member %d reported absent", id)
		}
	}
}

// TestDistinctByConstruction pins when DISTINCT may skip its pass.
func TestDistinctByConstruction(t *testing.T) {
	for _, tc := range []struct {
		src  string
		want bool
	}{
		{`SELECT DISTINCT ?s ?o WHERE { ?s <http://x/p> ?o . }`, true},
		{`SELECT DISTINCT * WHERE { ?s ?p ?o . }`, true},
		{`SELECT DISTINCT ?s WHERE { ?s <http://x/p> ?s . }`, true}, // a repeated variable
		{`SELECT DISTINCT ?s WHERE { ?s a <http://x/C> . }`, true},
		{`SELECT DISTINCT ?s WHERE { ?s <http://x/p> ?o . }`, false}, // ?o not projected
		{`SELECT DISTINCT ?s ?o WHERE { ?s <http://x/p> ?o . ?o <http://x/q> ?s . }`, false},
		{`SELECT DISTINCT ?s ?o WHERE { ?s <http://x/p> ?o . OPTIONAL { ?s <http://x/q> ?x . } }`, false},
		{`SELECT DISTINCT ?s ?o WHERE { ?s <http://x/p> ?o . { ?s <http://x/q> ?x . } UNION { ?s <http://x/r> ?x . } }`, false},
		{`SELECT DISTINCT ?s ?o WHERE { ?s <http://x/p> ?o . VALUES ?z { 1 2 } }`, false},
		{`SELECT DISTINCT ?s ?o WHERE { ?s <http://x/p> ?o . FILTER (?o != ?s) }`, false},
		{`SELECT DISTINCT ?s ?o (?o AS ?s) WHERE { ?s <http://x/p> ?o . }`, false}, // ?s is ?o's value
		{`SELECT DISTINCT ?s ?s ?o WHERE { ?s <http://x/p> ?o . }`, false},
	} {
		q, err := Parse(tc.src)
		if err != nil {
			t.Fatal(err)
		}
		if got := distinctByConstruction(q); got != tc.want {
			t.Errorf("%s: %v, want %v", tc.src, got, tc.want)
		}
	}
}

// TestDistinctSkipAnswers: the skipped pass and the kept one both give
// the oracle's answers, with duplicates the dedup must still remove.
func TestDistinctSkipAnswers(t *testing.T) {
	st := store.New(64)
	for _, tr := range [][3]string{{"a", "p", "a"}, {"b", "p", "b"}, {"a", "p", "c"}, {"a", "q", "x"}, {"a", "q", "y"}, {"c", "r", "x"}} {
		st.Add(rdf.Triple{S: ex(tr[0]), P: ex(tr[1]), O: ex(tr[2])})
	}
	for _, tc := range []struct {
		src  string
		rows int
	}{
		{`SELECT DISTINCT ?s WHERE { ?s <http://example.org/p> ?s . }`, 2},
		{`SELECT DISTINCT ?s WHERE { ?s <http://example.org/p> ?o . }`, 2},
		{`SELECT DISTINCT ?s ?o WHERE { ?s <http://example.org/p> ?o . }`, 3},
		{`SELECT DISTINCT ?s ?o WHERE { ?s <http://example.org/p> ?o . OPTIONAL { ?s <http://example.org/q> ?x . } }`, 3},
		{`SELECT DISTINCT ?s ?o WHERE { ?s <http://example.org/p> ?o . { ?s <http://example.org/q> ?x . } UNION { ?o <http://example.org/r> ?x . } }`, 2},
		{`SELECT DISTINCT ?s ?o WHERE { ?s <http://example.org/p> ?o . VALUES ?z { 1 2 } }`, 3},
	} {
		res, err := NewEngine(st).Query(context.Background(), tc.src)
		if err != nil {
			t.Fatal(err)
		}
		want, err := newOracle(st).Query(context.Background(), tc.src)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != tc.rows || !sameSolutions(res.Rows, want.Rows) {
			t.Errorf("%s: %d rows %v, want %d (oracle %v)", tc.src, len(res.Rows), res.Rows, tc.rows, want.Rows)
		}
	}
}

// TestDistinctSharedName: DISTINCT compares the rows a client sees, so
// the columns of a projection name used twice are resolved (the last
// bound value wins) before duplicates are removed, as the oracle's
// solution maps resolve them.
func TestDistinctSharedName(t *testing.T) {
	x := func(s string) rdf.Term { return rdf.NewIRI("http://x/" + s) }
	st := store.New(8)
	for _, tr := range [][3]string{{"a", "p", "b"}, {"b", "p", "b"}, {"c", "p", "d"}, {"c", "q", "b"}} {
		st.Add(rdf.Triple{S: x(tr[0]), P: x(tr[1]), O: x(tr[2])})
	}
	for _, tc := range []struct {
		src  string
		rows int
	}{
		{`SELECT DISTINCT ?x (?y AS ?x) WHERE { ?x <http://x/p> ?y . }`, 2},
		{`SELECT DISTINCT ?x ?y (?y AS ?x) WHERE { ?x <http://x/p> ?y . }`, 2},
		{`SELECT DISTINCT ?s ?p ?o (?o AS ?s) WHERE { ?s ?p ?o . }`, 3}, // one pattern, every variable kept
		{`SELECT DISTINCT ?x (?y AS ?x) WHERE { ?x <http://x/p> ?y . } ORDER BY ?x LIMIT 5`, 2},
	} {
		res, err := NewEngine(st).Query(context.Background(), tc.src)
		if err != nil {
			t.Fatal(err)
		}
		want, err := newOracle(st).Query(context.Background(), tc.src)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != tc.rows || !sameSolutions(res.Rows, want.Rows) {
			t.Errorf("%s: %d rows %v, want %d (oracle %v)", tc.src, len(res.Rows), res.Rows, tc.rows, want.Rows)
		}
	}
}

// TestCountDistinctPerGroup: run counting restarts at every group —
// adjacent groups sharing their boundary ID still count it each — and
// the other DISTINCT aggregates keep first-occurrence order.
func TestCountDistinctPerGroup(t *testing.T) {
	st := store.New(64)
	// Group g1 holds o1..o3, group g2 o3..o4: after sorting, g1 ends and
	// g2 starts with the same ID.
	for _, tr := range [][3]string{
		{"g1", "p", "o2"}, {"g1", "p", "o1"}, {"g1", "p", "o3"},
		{"g2", "p", "o3"}, {"g2", "p", "o4"},
		{"g1", "q", "o3"}, {"g2", "q", "o3"},
	} {
		st.Add(rdf.Triple{S: ex(tr[0]), P: ex(tr[1]), O: ex(tr[2])})
	}
	src := `SELECT ?g (COUNT(DISTINCT ?o) AS ?n) WHERE { ?g ?p ?o . } GROUP BY ?g`
	res, err := NewEngine(st).Query(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, row := range res.Rows {
		got[row["g"].Value] = row["n"].Value
	}
	if got[ex("g1").Value] != "3" || got[ex("g2").Value] != "2" {
		t.Fatalf("COUNT(DISTINCT) per group = %v, want g1=3 g2=2", got)
	}

	var sc aggScratch
	ids := []rdf.ID{9, 4, 9, 7, 4, 2, 7}
	if n := countRuns(slices.Clone(ids)); n != 4 {
		t.Errorf("countRuns = %d, want 4", n)
	}
	if got := sc.firstOccurrences(slices.Clone(ids)); !slices.Equal(got, []rdf.ID{9, 4, 7, 2}) {
		t.Errorf("firstOccurrences = %v, want [9 4 7 2]", got)
	}
}
