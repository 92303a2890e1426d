package decomposer

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"elinda/internal/core"
	"elinda/internal/hvs"
	"elinda/internal/rdf"
	"elinda/internal/sparql"
	"elinda/internal/store"
)

func ex(s string) rdf.Term { return rdf.NewIRI("http://example.org/" + s) }

func fixture(t *testing.T) *store.Store {
	t.Helper()
	st := store.New(64)
	_, err := st.Load([]rdf.Triple{
		{S: ex("plato"), P: rdf.TypeIRI, O: ex("Philosopher")},
		{S: ex("aristotle"), P: rdf.TypeIRI, O: ex("Philosopher")},
		{S: ex("kant"), P: rdf.TypeIRI, O: ex("Philosopher")},
		{S: ex("plato"), P: ex("born"), O: rdf.NewTypedLiteral("-427", rdf.XSDInteger)},
		{S: ex("aristotle"), P: ex("born"), O: rdf.NewTypedLiteral("-384", rdf.XSDInteger)},
		{S: ex("kant"), P: ex("influencedBy"), O: ex("hume")},
		{S: ex("kant"), P: ex("influencedBy"), O: ex("rousseau")},
		{S: ex("work1"), P: ex("author"), O: ex("plato")},
		{S: ex("work2"), P: ex("author"), O: ex("plato")},
		{S: ex("work3"), P: ex("author"), O: ex("kant")},
		{S: ex("school"), P: ex("founder"), O: ex("plato")},
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

const paperOutgoing = `SELECT ?p COUNT(?p) AS ?count SUM(?sp) AS ?sp
FROM {SELECT ?s ?p count(*) AS ?sp
FROM {?s a <http://example.org/Philosopher>. ?s ?p ?o.}
GROUP BY ?s ?p} GROUP BY ?p`

const paperIncoming = `SELECT ?p COUNT(?p) AS ?count SUM(?sp) AS ?sp
FROM {SELECT ?s ?p count(*) AS ?sp
FROM {?s a <http://example.org/Philosopher>. ?o ?p ?s.}
GROUP BY ?s ?p} GROUP BY ?p`

func TestDetectPaperQuery(t *testing.T) {
	q, err := sparql.Parse(paperOutgoing)
	if err != nil {
		t.Fatal(err)
	}
	det, ok := Detect(q)
	if !ok {
		t.Fatal("paper query not detected")
	}
	if det.Dir != Outgoing {
		t.Errorf("direction = %v", det.Dir)
	}
	if det.Class != ex("Philosopher") {
		t.Errorf("class = %v", det.Class)
	}
	if det.PropVar != "p" || det.CountVar != "count" || det.SumVar != "sp" {
		t.Errorf("vars = %q %q %q", det.PropVar, det.CountVar, det.SumVar)
	}
}

func TestDetectIncoming(t *testing.T) {
	q, err := sparql.Parse(paperIncoming)
	if err != nil {
		t.Fatal(err)
	}
	det, ok := Detect(q)
	if !ok {
		t.Fatal("incoming query not detected")
	}
	if det.Dir != Incoming {
		t.Errorf("direction = %v", det.Dir)
	}
}

func TestDetectSingleLevel(t *testing.T) {
	q, err := sparql.Parse(`SELECT ?p (COUNT(DISTINCT ?s) AS ?c) (COUNT(*) AS ?t)
WHERE { ?s a <http://example.org/Philosopher> . ?s ?p ?o . } GROUP BY ?p`)
	if err != nil {
		t.Fatal(err)
	}
	det, ok := Detect(q)
	if !ok {
		t.Fatal("single-level query not detected")
	}
	if det.CountVar != "c" || det.SumVar != "t" {
		t.Errorf("vars = %+v", det)
	}
}

func TestDetectRejectsNonExpansions(t *testing.T) {
	negatives := []string{
		`SELECT ?s WHERE { ?s ?p ?o . }`,
		`SELECT ?p (COUNT(?s) AS ?c) WHERE { ?s ?p ?o . } GROUP BY ?p`,                                                      // no type triple
		`SELECT ?p (COUNT(DISTINCT ?s) AS ?c) WHERE { ?s a ?cls . ?s ?p ?o . } GROUP BY ?p`,                                 // variable class
		`SELECT ?p (COUNT(DISTINCT ?s) AS ?c) WHERE { ?s a <http://x/C> . ?s ?p ?o . FILTER (?p != rdf:type) } GROUP BY ?p`, // filter present
		`SELECT ?p (COUNT(DISTINCT ?s) AS ?c) WHERE { ?s a <http://x/C> . ?s ?p ?s . } GROUP BY ?p`,                         // self-loop pattern
		`SELECT DISTINCT ?p (COUNT(DISTINCT ?s) AS ?c) WHERE { ?s a <http://x/C> . ?s ?p ?o . } GROUP BY ?p`,                // DISTINCT modifier
		`SELECT ?p (SUM(?s) AS ?c) WHERE { ?s a <http://x/C> . ?s ?p ?o . } GROUP BY ?p`,                                    // wrong aggregate
		`ASK { ?s ?p ?o }`,
		`SELECT ?p (COUNT(DISTINCT ?s) AS ?p) WHERE { ?s a <http://x/C> . ?s ?p ?o . } GROUP BY ?p`,                  // a result name twice
		`SELECT ?p (COUNT(DISTINCT ?s) AS ?c) (COUNT(*) AS ?c) WHERE { ?s a <http://x/C> . ?s ?p ?o . } GROUP BY ?p`, // a result name twice
	}
	for i, src := range negatives {
		q, err := sparql.Parse(src)
		if err != nil {
			t.Fatalf("case %d: parse: %v", i, err)
		}
		if _, ok := Detect(q); ok {
			t.Errorf("case %d: wrongly detected %q", i, src)
		}
	}
}

func TestPropertyStatsOutgoing(t *testing.T) {
	st := fixture(t)
	d := New(st)
	phil, _ := st.Dict().Lookup(ex("Philosopher"))
	stats := d.PropertyStats(phil, Outgoing)
	byProp := map[string]PropStat{}
	for _, s := range stats {
		byProp[st.Dict().Term(s.Property).Value] = s
	}
	if s := byProp[rdf.RDFType]; s.Subjects != 3 || s.Triples != 3 {
		t.Errorf("rdf:type = %+v", s)
	}
	if s := byProp["http://example.org/born"]; s.Subjects != 2 || s.Triples != 2 {
		t.Errorf("born = %+v", s)
	}
	if s := byProp["http://example.org/influencedBy"]; s.Subjects != 1 || s.Triples != 2 {
		t.Errorf("influencedBy = %+v", s)
	}
	// Sorted by descending subject count.
	for i := 1; i < len(stats); i++ {
		if stats[i].Subjects > stats[i-1].Subjects {
			t.Error("stats not sorted by subjects desc")
		}
	}
}

func TestPropertyStatsIncoming(t *testing.T) {
	st := fixture(t)
	d := New(st)
	phil, _ := st.Dict().Lookup(ex("Philosopher"))
	stats := d.PropertyStats(phil, Incoming)
	byProp := map[string]PropStat{}
	for _, s := range stats {
		byProp[st.Dict().Term(s.Property).Value] = s
	}
	// author enters plato and kant: 2 subjects, 3 triples.
	if s := byProp["http://example.org/author"]; s.Subjects != 2 || s.Triples != 3 {
		t.Errorf("author = %+v", s)
	}
	if s := byProp["http://example.org/founder"]; s.Subjects != 1 || s.Triples != 1 {
		t.Errorf("founder = %+v", s)
	}
	// influencedBy enters hume/rousseau, not philosophers: absent.
	if _, ok := byProp["http://example.org/influencedBy"]; ok {
		t.Error("influencedBy should not appear as incoming for Philosopher")
	}
}

// TestDecomposedEqualsGeneric is the central correctness property: the
// decomposer's answer must be identical (as a set of rows) to running the
// same query through the generic engine.
func TestDecomposedEqualsGeneric(t *testing.T) {
	st := fixture(t)
	d := New(st)
	eng := sparql.NewEngine(st)
	for _, src := range []string{paperOutgoing, paperIncoming} {
		q, err := sparql.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		fast, ok := d.TryExecute(q)
		if !ok {
			t.Fatalf("not decomposed: %s", src)
		}
		slow, err := eng.Execute(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		assertSameRows(t, fast, slow)
	}
}

// TestDecomposedEqualsGenericRandom fuzzes the equivalence on random
// graphs.
func TestDecomposedEqualsGenericRandom(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		st := store.New(256)
		nInst := 5 + r.Intn(20)
		for i := 0; i < nInst; i++ {
			inst := ex(fmt.Sprintf("i%d", i))
			st.Add(rdf.Triple{S: inst, P: rdf.TypeIRI, O: ex("C")})
			for j := 0; j < r.Intn(5); j++ {
				p := ex(fmt.Sprintf("p%d", r.Intn(4)))
				st.Add(rdf.Triple{S: inst, P: p, O: ex(fmt.Sprintf("o%d", r.Intn(10)))})
			}
			for j := 0; j < r.Intn(3); j++ {
				p := ex(fmt.Sprintf("q%d", r.Intn(3)))
				st.Add(rdf.Triple{S: ex(fmt.Sprintf("x%d", r.Intn(10))), P: p, O: inst})
			}
		}
		d := New(st)
		eng := sparql.NewEngine(st)
		for _, dir := range []string{"?s ?p ?o.", "?o ?p ?s."} {
			src := fmt.Sprintf(`SELECT ?p COUNT(?p) AS ?count SUM(?sp) AS ?sp
FROM {SELECT ?s ?p count(*) AS ?sp FROM {?s a <http://example.org/C>. %s} GROUP BY ?s ?p} GROUP BY ?p`, dir)
			q, err := sparql.Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			fast, ok := d.TryExecute(q)
			if !ok {
				t.Fatal("not decomposed")
			}
			slow, err := eng.Execute(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			assertSameRows(t, fast, slow)
		}
	}
}

func assertSameRows(t *testing.T, a, b *sparql.Result) {
	t.Helper()
	key := func(rows []sparql.Solution) map[string]sparql.Solution {
		m := map[string]sparql.Solution{}
		for _, r := range rows {
			m[r["p"].Value] = r
		}
		return m
	}
	ka, kb := key(a.Rows), key(b.Rows)
	if len(ka) != len(kb) {
		t.Fatalf("row counts differ: %d vs %d\nfast=%v\nslow=%v", len(ka), len(kb), a.Rows, b.Rows)
	}
	for p, ra := range ka {
		rb, ok := kb[p]
		if !ok {
			t.Fatalf("property %s missing from generic result", p)
		}
		if !reflect.DeepEqual(ra, rb) {
			t.Fatalf("rows differ for %s: fast=%v slow=%v", p, ra, rb)
		}
	}
}

func TestTryExecuteHonorsModifiers(t *testing.T) {
	st := fixture(t)
	d := New(st)
	src := paperOutgoing + ` ORDER BY DESC(?count) LIMIT 2`
	q, err := sparql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, ok := d.TryExecute(q)
	if !ok {
		t.Fatal("not decomposed")
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
	if res.Rows[0]["p"].Value != rdf.RDFType {
		t.Errorf("top property = %v, want rdf:type", res.Rows[0]["p"])
	}
}

// TestTryExecuteRendersOnce: repeats of a query text share the rows
// rendered for it on its first answer, a query with modifiers does not
// reorder them for the next caller, and a query naming its variables
// differently gets rows under its own names.
func TestTryExecuteRendersOnce(t *testing.T) {
	st := fixture(t)
	d := New(st)
	eng := sparql.NewEngine(st)
	renamed := `SELECT ?prop COUNT(?prop) AS ?n SUM(?k) AS ?k2
FROM {SELECT ?x ?prop count(*) AS ?k
FROM {?x a <http://example.org/Philosopher>. ?x ?prop ?y.}
GROUP BY ?x ?prop} GROUP BY ?prop`
	rendered := map[string]*Rendering{}
	for _, src := range []string{paperOutgoing, renamed, paperOutgoing, paperOutgoing + ` ORDER BY ?count`, paperOutgoing, renamed} {
		q, err := sparql.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		text := hvs.Normalize(src)
		r := d.Lookup(text, st.Generation())
		if r == nil {
			var ok bool
			if r, ok = d.TryAnswer(q, text); !ok {
				t.Fatalf("not decomposed: %s", src)
			}
			if _, seen := rendered[text]; seen {
				t.Fatalf("a repeat of %s was rendered again", src)
			}
			rendered[text] = r
		}
		fast := r.Result()
		slow, err := eng.Execute(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fast.Vars, slow.Vars) {
			t.Fatalf("vars %v, engine %v", fast.Vars, slow.Vars)
		}
		key := func(r sparql.Solution) string { return r[fast.Vars[0]].Value }
		got, want := map[string]sparql.Solution{}, map[string]sparql.Solution{}
		for i := range fast.Rows {
			got[key(fast.Rows[i])] = fast.Rows[i]
		}
		for i := range slow.Rows {
			want[key(slow.Rows[i])] = slow.Rows[i]
		}
		if len(fast.Rows) != len(slow.Rows) || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s:\nfast=%v\nslow=%v", src, fast.Rows, slow.Rows)
		}
	}
	phil, _ := st.Dict().Lookup(ex("Philosopher"))
	stats := d.PropertyStats(phil, Outgoing)
	for i, row := range d.Lookup(hvs.Normalize(paperOutgoing), st.Generation()).Result().Rows {
		if row["p"] != st.Dict().Term(stats[i].Property) {
			t.Fatalf("memoized rows out of stats order at %d", i)
		}
	}
}

func TestTryExecuteUnknownClass(t *testing.T) {
	st := fixture(t)
	d := New(st)
	q, err := sparql.Parse(`SELECT ?p (COUNT(DISTINCT ?s) AS ?c)
WHERE { ?s a <http://example.org/Never> . ?s ?p ?o . } GROUP BY ?p`)
	if err != nil {
		t.Fatal(err)
	}
	res, ok := d.TryExecute(q)
	if !ok {
		t.Fatal("should still decompose")
	}
	if len(res.Rows) != 0 {
		t.Errorf("rows = %d, want 0", len(res.Rows))
	}
}

func TestMemoInvalidation(t *testing.T) {
	st := fixture(t)
	d := New(st)
	phil, _ := st.Dict().Lookup(ex("Philosopher"))
	before := d.PropertyStats(phil, Outgoing)
	// Add a new property triple and verify the memo refreshes.
	st.Add(rdf.Triple{S: ex("plato"), P: ex("diedIn"), O: ex("athens")})
	after := d.PropertyStats(phil, Outgoing)
	if len(after) != len(before)+1 {
		t.Errorf("memo not invalidated: %d -> %d properties", len(before), len(after))
	}
}

func TestWarm(t *testing.T) {
	st := fixture(t)
	d := New(st)
	phil, _ := st.Dict().Lookup(ex("Philosopher"))
	d.Warm(phil)
	d.mu.Lock()
	n := len(d.memo)
	d.mu.Unlock()
	if n != 2 {
		t.Errorf("memo entries after Warm = %d, want 2", n)
	}
}

// oracleStats is the per-triple walk PropertyStats ran before it moved
// onto the store's property-distribution kernel: every triple of every
// instance through a map. It stays in test code as the reference.
func oracleStats(snap *store.Snapshot, class rdf.ID, dir Direction) map[rdf.ID]PropStat {
	out := map[rdf.ID]PropStat{}
	for _, s := range snap.SubjectsOfType(class) {
		seen := map[rdf.ID]bool{}
		visit := func(e rdf.EncodedTriple) bool {
			ps := out[e.P]
			ps.Property = e.P
			ps.Triples++
			if !seen[e.P] {
				seen[e.P] = true
				ps.Subjects++
			}
			out[e.P] = ps
			return true
		}
		if dir == Outgoing {
			snap.Match(s, rdf.NoID, rdf.NoID, visit)
		} else {
			snap.Match(rdf.NoID, rdf.NoID, s, visit)
		}
	}
	return out
}

// TestDecomposedEqualsGenericUnderDeltas is the decomposer's write-path
// differential: after each of a run of random insert/delete deltas (which
// leave tails, sorted deltas and tombstones behind, and eventually fold),
// TryExecute's rows for the explorer's own property-expansion SPARQL
// equal the generic engine's in both directions, and PropertyStats equals
// the oracle walk and is ordered by subject count, then label.
func TestDecomposedEqualsGenericUnderDeltas(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	node := func() rdf.Term { return ex(fmt.Sprintf("n%d", r.Intn(60))) }
	random := func() rdf.Triple {
		if r.Intn(3) == 0 {
			return rdf.Triple{S: node(), P: rdf.TypeIRI, O: ex(fmt.Sprintf("C%d", r.Intn(2)))}
		}
		return rdf.Triple{S: node(), P: ex(fmt.Sprintf("p%d", r.Intn(5))), O: node()}
	}
	st := store.New(1024)
	var initial []rdf.Triple
	for i := 0; i < 500; i++ {
		initial = append(initial, random())
	}
	if _, err := st.Load(initial); err != nil {
		t.Fatal(err)
	}
	d := New(st)
	eng := sparql.NewEngine(st)
	present := func() rdf.Triple {
		var out rdf.Triple
		st.Snapshot().Scan(r.Intn(st.Len()), 1, func(e rdf.EncodedTriple) bool {
			out = st.Dict().Decode(e)
			return false
		})
		return out
	}
	for step := 0; step < 80; step++ {
		var delta store.Delta
		k, deletes := 1+r.Intn(60), true
		if step%40 == 39 {
			k, deletes = 1500, false // inserts only, past the delta bound: a fold
		}
		for ; k > 0; k-- {
			if deletes && r.Intn(2) == 0 {
				delta.Delete(present())
			} else {
				delta.Insert(random())
			}
		}
		if _, err := st.Apply(delta); err != nil {
			t.Fatal(err)
		}
		checkExpansions(t, fmt.Sprintf("step %d", step), st, d, eng)
	}
}

// checkExpansions asserts, for both directions of classes C0 and C1, that
// TryExecute's rows for the explorer's property-expansion SPARQL equal the
// generic engine's, and that PropertyStats equals the oracle walk and is
// ordered by subject count, then label, then property ID.
func checkExpansions(t *testing.T, at string, st *store.Store, d *Decomposer, eng *sparql.Engine) {
	t.Helper()
	snap := st.Snapshot()
	for c := 0; c < 2; c++ {
		class := ex(fmt.Sprintf("C%d", c))
		for _, dir := range []Direction{Outgoing, Incoming} {
			q, err := sparql.Parse(core.PropertyExpansionSPARQL(class, dir == Incoming))
			if err != nil {
				t.Fatal(err)
			}
			fast, ok := d.TryExecute(q)
			if !ok {
				t.Fatal("not decomposed")
			}
			slow, err := eng.Execute(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			assertSameRows(t, fast, slow)

			cid, ok := st.Dict().Lookup(class)
			if !ok {
				continue
			}
			stats := d.PropertyStats(cid, dir)
			want := oracleStats(snap, cid, dir)
			if len(stats) != len(want) {
				t.Fatalf("%s %v %v: %d stats, oracle %d", at, class, dir, len(stats), len(want))
			}
			for _, s := range stats {
				if want[s.Property] != s {
					t.Fatalf("%s %v %v: %+v, oracle %+v", at, class, dir, s, want[s.Property])
				}
			}
			if !sort.SliceIsSorted(stats, func(i, j int) bool {
				a, b := stats[i], stats[j]
				if a.Subjects != b.Subjects {
					return a.Subjects > b.Subjects
				}
				if la, lb := snap.Label(a.Property), snap.Label(b.Property); la != lb {
					return la < lb
				}
				return a.Property < b.Property
			}) {
				t.Fatalf("%s %v %v: stats not ordered by subjects, then label, then ID", at, class, dir)
			}
		}
	}
}

// TestMaintainedMemoEqualsOracleUnderDeltas is the maintenance
// differential: every delta is handed to Decomposer.ApplyDelta, and
// checkExpansions fills all four memo entries after each one, so the
// next delta folds them. Only every ninth delta carries an rdf:type op
// (which must drop the memo); every other one must keep it. The deltas
// cover plain folds, a property's first appearance and its fall to zero,
// several ops on one (node, property), an insert and a delete of one
// (node, property) together, rdfs:label ops on the properties the entries
// hold, and a batch large enough to fold the store.
func TestMaintainedMemoEqualsOracleUnderDeltas(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	node := func() rdf.Term { return ex(fmt.Sprintf("n%d", r.Intn(40))) }
	prop := func() rdf.Term { return ex(fmt.Sprintf("p%d", r.Intn(6))) }
	class := func() rdf.Term { return ex(fmt.Sprintf("C%d", r.Intn(2))) }
	rare := ex("rare")

	st := store.New(1024)
	var initial []rdf.Triple
	for i := 0; i < 36; i++ { // n36..n39 start untyped
		initial = append(initial, rdf.Triple{S: ex(fmt.Sprintf("n%d", i)), P: rdf.TypeIRI, O: class()})
	}
	for i := 0; i < 300; i++ {
		initial = append(initial, rdf.Triple{S: node(), P: prop(), O: node()})
	}
	if _, err := st.Load(initial); err != nil {
		t.Fatal(err)
	}
	d := New(st)
	eng := sparql.NewEngine(st)
	// matching returns the live triples with predicate p (any when p is
	// the zero term), never rdf:type ones.
	matching := func(p rdf.Term) []rdf.Triple {
		var out []rdf.Triple
		st.Snapshot().Scan(0, 0, func(e rdf.EncodedTriple) bool {
			if tr := st.Dict().Decode(e); tr.P != rdf.TypeIRI && (p == rdf.Term{} || tr.P == p) {
				out = append(out, tr)
			}
			return true
		})
		return out
	}
	pick := func(ts []rdf.Triple) rdf.Triple { return ts[r.Intn(len(ts))] }
	checkExpansions(t, "initial", st, d, eng)

	folded := 0
	for step := 0; step < 160; step++ {
		var delta store.Delta
		typeOp := step%9 == 8
		switch kind := step % 6; {
		case step%40 == 39: // past the delta bound: the store folds
			for k := 0; k < 1500; k++ {
				delta.Insert(rdf.Triple{S: node(), P: prop(), O: node()})
			}
		case kind == 0: // plain inserts and deletes
			for k := 1 + r.Intn(5); k > 0; k-- {
				if r.Intn(2) == 0 {
					delta.Delete(pick(matching(rdf.Term{})))
				} else {
					delta.Insert(rdf.Triple{S: node(), P: prop(), O: node()})
				}
			}
		case kind == 1: // one (node, property) several times
			s, p := node(), prop()
			delta.Insert(rdf.Triple{S: s, P: p, O: node()}, rdf.Triple{S: s, P: p, O: node()})
			if ts := matching(p); len(ts) > 0 {
				delta.Delete(pick(ts))
			}
		case kind == 2: // insert and delete of one (node, property)
			old := pick(matching(rdf.Term{}))
			delta.Delete(old)
			delta.Insert(rdf.Triple{S: old.S, P: old.P, O: node()})
		case kind == 3: // relabel the properties the entries hold
			for k := 1 + r.Intn(3); k > 0; k-- {
				delta.Insert(rdf.Triple{S: prop(), P: rdf.LabelIRI, O: rdf.NewLiteral(fmt.Sprintf("L%d", r.Intn(4)))})
			}
			if ts := matching(rdf.LabelIRI); len(ts) > 0 {
				delta.Delete(pick(ts))
			}
		default: // a property's first appearance, or its fall to zero
			if ts := matching(rare); len(ts) > 0 {
				delta.Delete(ts...)
			} else {
				delta.Insert(rdf.Triple{S: node(), P: rare, O: node()}, rdf.Triple{S: node(), P: rare, O: node()})
			}
		}
		if typeOp { // always effective: flip one membership
			tr := rdf.Triple{S: node(), P: rdf.TypeIRI, O: class()}
			if st.Snapshot().ContainsTriple(tr) {
				delta.Delete(tr)
			} else {
				delta.Insert(tr)
			}
		}

		before := maps.Clone(d.memo)
		res, err := st.Apply(delta, d.ApplyDelta)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case !res.Changed():
		case typeOp:
			if len(d.memo) != 0 {
				t.Fatalf("step %d: a delta with rdf:type ops kept the memo", step)
			}
		case len(d.memo) != len(before) || d.generation != res.To:
			t.Fatalf("step %d: memo of %d entries not carried to generation %d: %d entries at %d",
				step, len(before), res.To, len(d.memo), d.generation)
		default:
			for k, e := range d.memo {
				if before[k] != e {
					folded++
					break
				}
			}
		}
		checkExpansions(t, fmt.Sprintf("step %d", step), st, d, eng)
	}
	if folded < 100 {
		t.Fatalf("only %d of 160 deltas changed a maintained entry", folded)
	}
}

// TestMemoNeverRollsBack: a request bound to a generation older than the
// memo — one that arrived before a write the memo has already folded —
// is answered from the memo, the answer at a generation published since
// it arrived, without replacing the memo or rolling back its generation.
// The text is rendered again from the folded entry with no kernel pass,
// once: the new rendering answers the next request too.
func TestMemoNeverRollsBack(t *testing.T) {
	st := fixture(t)
	d := New(st)
	q, err := sparql.Parse(paperOutgoing)
	if err != nil {
		t.Fatal(err)
	}
	text := hvs.Normalize(paperOutgoing)
	old := st.Generation()
	before, _ := d.TryAnswer(q, text)
	res, err := st.Apply(store.DeltaOf(rdf.Insert(rdf.Triple{S: ex("plato"), P: ex("diedIn"), O: ex("athens")})), d.ApplyDelta)
	if err != nil {
		t.Fatal(err)
	}
	phil, _ := st.Dict().Lookup(ex("Philosopher"))
	folded := d.memo[memoKey{phil, Outgoing}]
	if folded == nil || len(folded.stats) != before.Table().Len()+1 {
		t.Fatalf("write not folded into the memo: %+v", folded)
	}
	r := d.Lookup(text, old)
	if r == nil || r == before || r.Table().Len() != len(folded.stats) {
		t.Fatalf("a request from generation %d got %+v, not the folded entry rendered", old, r)
	}
	if d.Lookup(text, old) != r || d.Lookup(text, res.To) != r {
		t.Fatal("the text was rendered again for a repeat")
	}
	if d.generation != res.To || d.memo[memoKey{phil, Outgoing}] != folded {
		t.Fatalf("an older request rolled the memo back to generation %d", d.generation)
	}
	if s := d.Stats(); s.PassesStored != 1 || s.PassesDiscarded != 0 {
		t.Fatalf("one kernel pass expected, stored: %+v", s)
	}
}

// TestRenderingSharedUntilWrite: a query with no solution modifiers is
// answered with its rendering, whose result is built once and shared, the
// same on every repeat of its text and keeping its bodies; a modified
// query gets its own rows and is not kept. After a write the memo folds,
// the text's lookup is a new rendering of the folded entry; after one on
// rdf:type, which drops the memo, the text is not found and the next
// answer is a new rendering. Either has no body and holds the new counts.
func TestRenderingSharedUntilWrite(t *testing.T) {
	st := fixture(t)
	d := New(st)
	eng := sparql.NewEngine(st)
	q, err := sparql.Parse(paperOutgoing)
	if err != nil {
		t.Fatal(err)
	}
	text := hvs.Normalize(paperOutgoing)
	r, ok := d.TryAnswer(q, text)
	if !ok || r.Result() != r.Result() {
		t.Fatalf("unmodified query: rendering %+v, or its result is built per call", r)
	}
	r.KeepBody("text/plain", []byte("kept"))
	r2 := d.Lookup(text, st.Generation())
	if r2 != r || string(r2.Body("text/plain")) != "kept" {
		t.Fatalf("repeat got a new answer or lost its body")
	}
	orderedText := paperOutgoing + ` ORDER BY ?count`
	ordered, err := sparql.Parse(orderedText)
	if err != nil {
		t.Fatal(err)
	}
	if o, _ := d.TryAnswer(ordered, hvs.Normalize(orderedText)); o == r || &o.Result().Rows[0] == &r.Result().Rows[0] || d.Lookup(hvs.Normalize(orderedText), st.Generation()) != nil {
		t.Fatal("a modified query shares the rendering's rows, or was kept")
	}
	for _, tc := range []struct {
		op     rdf.TripleOp
		folded bool
	}{
		{rdf.Insert(rdf.Triple{S: ex("plato"), P: ex("diedIn"), O: ex("athens")}), true},
		{rdf.Insert(rdf.Triple{S: ex("hume"), P: rdf.TypeIRI, O: ex("Philosopher")}), false}, // drops the memo
	} {
		res, err := st.Apply(store.DeltaOf(tc.op), d.ApplyDelta)
		if err != nil {
			t.Fatal(err)
		}
		next := d.Lookup(text, res.To)
		if (next != nil) != tc.folded {
			t.Fatalf("after %v: lookup %+v", tc.op, next)
		}
		if next == nil {
			next, _ = d.TryAnswer(q, text)
		}
		if next == r || next.Body("text/plain") != nil {
			t.Fatalf("after %v: the pre-write rendering survived", tc.op)
		}
		want, err := eng.Execute(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if got := next.Result(); len(got.Rows) != len(want.Rows) {
			t.Fatalf("after %v: %d rows, engine %d", tc.op, len(got.Rows), len(want.Rows))
		}
		r = next
	}
}

// TestMemoHitAllocatesNothing: once a rendering has built its result, a
// repeat of its text is a lookup that shares it and allocates nothing.
func TestMemoHitAllocatesNothing(t *testing.T) {
	st := fixture(t)
	d := New(st)
	q, err := sparql.Parse(paperOutgoing)
	if err != nil {
		t.Fatal(err)
	}
	text := hvs.Normalize(paperOutgoing)
	r, _ := d.TryAnswer(q, text)
	want := r.Result()
	gen := st.Generation()
	if n := testing.AllocsPerRun(100, func() {
		if d.Lookup(text, gen).Result() != want {
			t.Fatal("a repeat got another result")
		}
	}); n != 0 {
		t.Fatalf("a memo hit allocated %v times", n)
	}
}

// TestOvertakenPassAnswersItsOwnRead: a kernel pass that a write
// overtakes answers its own read with its own snapshot's stats and is not
// stored; the next read computes and stores the entry at the memo's
// generation. Of two passes for one entry, the one that finishes second
// answers with the first one's entry. Each pass is counted once, as
// stored only when the memo keeps its entry.
func TestOvertakenPassAnswersItsOwnRead(t *testing.T) {
	st := fixture(t)
	d := New(st)
	phil, _ := st.Dict().Lookup(ex("Philosopher"))
	key := memoKey{phil, Outgoing}
	snap, hit := d.begin(key)
	if hit != nil {
		t.Fatal("a fresh memo hit")
	}
	if _, err := st.Apply(store.DeltaOf(rdf.Insert(rdf.Triple{S: ex("plato"), P: ex("diedIn"), O: ex("athens")})), d.ApplyDelta); err != nil {
		t.Fatal(err)
	}
	own := computeEntry(snap, phil, Outgoing)
	got := d.finish(key, snap.Generation(), own)
	if !reflect.DeepEqual(got.stats, own.stats) || d.memo[key] != nil {
		t.Fatalf("an overtaken pass answered %+v (want its own %+v) or was stored", got.stats, own)
	}
	if s := d.Stats(); s.PassesStored != 0 || s.PassesDiscarded != 1 {
		t.Fatalf("overtaken pass counted as %+v", s)
	}
	if want := computeEntry(st.Snapshot(), phil, Outgoing).stats; !reflect.DeepEqual(d.PropertyStats(phil, Outgoing), want) || d.memo[key] == nil {
		t.Fatalf("the next read got %+v, kernel %+v, or was not stored", d.memo[key], want)
	}

	key = memoKey{phil, Incoming}
	snap1, _ := d.begin(key)
	snap2, _ := d.begin(key)
	first := d.finish(key, snap1.Generation(), computeEntry(snap1, phil, Incoming))
	second := d.finish(key, snap2.Generation(), computeEntry(snap2, phil, Incoming))
	if second != first || d.memo[key] != first {
		t.Fatal("the second of two passes for one entry replaced the first one's entry")
	}
	if s := d.Stats(); s.PassesStored != 2 || s.PassesDiscarded != 2 {
		t.Fatalf("want 2 stored and 2 discarded passes, got %+v", s)
	}
}

// TestReplacedEntryRenderingNotKept: a rendering is kept for its text only
// while the memo holds the entry it renders. One rendered from an entry
// that a write then replaced (folded into a new entry, or dropped with the
// memo) still answers its own read but is not kept: after the fold the
// text's lookup renders the folded entry, after the drop no text is kept.
func TestReplacedEntryRenderingNotKept(t *testing.T) {
	st := fixture(t)
	d := New(st)
	q, err := sparql.Parse(paperOutgoing)
	if err != nil {
		t.Fatal(err)
	}
	text := hvs.Normalize(paperOutgoing)
	r, _ := d.TryAnswer(q, text)
	for _, tc := range []struct {
		op     rdf.TripleOp
		folded bool
	}{
		{rdf.Insert(rdf.Triple{S: ex("plato"), P: ex("diedIn"), O: ex("athens")}), true},
		{rdf.Insert(rdf.Triple{S: ex("hume"), P: rdf.TypeIRI, O: ex("Philosopher")}), false},
	} {
		stale := d.render(r.key, r.vars, d.memo[r.key]) // a render the write overtakes
		res, err := st.Apply(store.DeltaOf(tc.op), d.ApplyDelta)
		if err != nil {
			t.Fatal(err)
		}
		d.keep(text, stale)
		next := d.Lookup(text, res.To)
		switch {
		case !tc.folded && ShownTexts(d) != 0:
			t.Fatalf("after %v: a rendering of a dropped entry was kept", tc.op)
		case tc.folded && (next == nil || next == stale || next.entry != d.memo[r.key]):
			t.Fatalf("after %v: the lookup got %+v, not the folded entry rendered", tc.op, next)
		}
	}
}

// TestFoldedLookupsBesideDrops runs lookups that render folded entries
// again beside writes that drop the memo (run it under -race). Once the
// memo is dropped no rendering made before the drop may be kept: with no
// read since, the decomposer keeps no text.
func TestFoldedLookupsBesideDrops(t *testing.T) {
	st := store.New(4096)
	var ts []rdf.Triple
	for i := 0; i < 40; i++ {
		ts = append(ts, rdf.Triple{S: ex(fmt.Sprintf("i%d", i)), P: rdf.TypeIRI, O: ex("C")})
		for j := 0; j < 60; j++ {
			ts = append(ts, rdf.Triple{S: ex(fmt.Sprintf("i%d", i)), P: ex(fmt.Sprintf("p%d", (i+j)%120)), O: ex(fmt.Sprintf("o%d", j))})
		}
	}
	if _, err := st.Load(ts); err != nil {
		t.Fatal(err)
	}
	d := New(st)
	var texts []string
	var queries []*sparql.Query
	for _, incoming := range []bool{false, true} {
		src := core.PropertyExpansionSPARQL(ex("C"), incoming)
		q, err := sparql.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		texts, queries = append(texts, hvs.Normalize(src)), append(queries, q)
	}
	apply := func(tr rdf.Triple) uint64 {
		op := rdf.Insert(tr)
		if st.Snapshot().ContainsTriple(tr) {
			op = rdf.Delete(tr)
		}
		res, err := st.Apply(store.DeltaOf(op), d.ApplyDelta)
		if err != nil {
			t.Fatal(err)
		}
		return res.To
	}
	for round := 0; round < 200; round++ {
		for i, q := range queries {
			d.TryAnswer(q, texts[i])
		}
		gen := apply(rdf.Triple{S: ex("i0"), P: ex("p0"), O: ex(fmt.Sprintf("new%d", round))}) // folded
		started, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			close(started)
			for _, text := range texts {
				d.Lookup(text, gen)
			}
		}()
		<-started
		apply(rdf.Triple{S: ex("i1"), P: rdf.TypeIRI, O: ex("C")}) // drops the memo
		<-done
		if n := ShownTexts(d); n != 0 {
			t.Fatalf("round %d: %d texts kept past the memo's drop", round, n)
		}
	}
}
