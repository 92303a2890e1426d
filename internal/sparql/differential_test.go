package sparql

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"elinda/internal/rdf"
	"elinda/internal/store"
)

// This file differentially tests the ID-space streaming executor against
// the map-based oracle (oracle_test.go): for random datasets and random
// queries spanning BGP joins, VALUES, UNION, OPTIONAL, FILTER, subselects,
// DISTINCT, GROUP BY aggregates and ORDER BY, both must return identical
// row sets. It reuses the random-store style of quick_test.go.

// genDiffStore builds a random store over small constant pools so joins
// actually produce matches. About a third of the objects are drawn from
// the subject pool, making the data graph-shaped: cyclic patterns
// (triangles, diamonds) close with nonzero probability instead of never
// matching. Literal objects are typed integers only: distinct literals
// must never compare equal, or MIN/MAX tie-breaking would depend on row
// order and the paths could legitimately diverge.
//
// The store passes through every overlay state a reader can meet: half
// the triples are bulk-loaded into a columnar base, the rest arrive one
// Add at a time (tail and sorted delta), and a random subset is deleted
// — base-resident deletes become tombstones, some deleted triples come
// back. In a quarter of the stores a batch of filler triples is inserted
// and later deleted in batches large enough to fold the overlay into a
// new base each time, the second fold dropping real deletes with it.
// The returned triples are the store's contents.
func genDiffStore(r *rand.Rand) (*store.Store, []rdf.Triple) {
	st := store.New(128)
	gen := func() rdf.Triple {
		var o rdf.Term
		switch {
		case r.Intn(3) == 0:
			o = ex(fmt.Sprintf("s%d", r.Intn(8)))
		case r.Intn(4) == 0:
			o = rdf.NewTypedLiteral(fmt.Sprint(r.Intn(9)+1), rdf.XSDInteger)
		default:
			o = ex(fmt.Sprintf("o%d", r.Intn(8)))
		}
		return rdf.Triple{
			S: ex(fmt.Sprintf("s%d", r.Intn(8))),
			P: ex(fmt.Sprintf("p%d", r.Intn(4))),
			O: o,
		}
	}
	n := 30 + r.Intn(50)
	var live []rdf.Triple // may repeat a triple; the store is a set
	base := make([]rdf.Triple, n/2)
	for i := range base {
		base[i] = gen()
	}
	live = append(live, base...)
	if _, err := st.Load(base); err != nil {
		panic(err)
	}
	var fill store.Delta
	if r.Intn(4) == 0 {
		for i := 0; i < 1100; i++ {
			fill.Insert(rdf.Triple{S: ex(fmt.Sprintf("f%d", i)), P: ex("fill"), O: ex(fmt.Sprintf("g%d", i))})
		}
		mustApply(st, fill) // folds: the delta outgrows its bound
	}
	for i := n / 2; i < n; i++ {
		tr := gen()
		live = append(live, tr)
		if _, err := st.Add(tr); err != nil {
			panic(err)
		}
	}
	var del store.Delta
	for i, k := 0, r.Intn(n/3+1); i < k; i++ {
		del.Delete(live[r.Intn(len(live))])
	}
	if fill.Len() > 0 {
		// The fillers' tombstones fold the store again, taking the
		// deletes above with them; later deletes stay tombstones.
		for _, op := range fill.Ops() {
			del.Delete(op.Triple)
		}
		mustApply(st, del)
		del = store.Delta{}
		for i, k := 0, r.Intn(n/4+1); i < k; i++ {
			del.Delete(live[r.Intn(len(live))])
		}
	}
	mustApply(st, del)
	for _, op := range del.Ops() {
		if r.Intn(4) == 0 {
			st.Add(op.Triple) // deleted, then re-inserted
		}
	}
	var triples []rdf.Triple
	st.Snapshot().Scan(0, 0, func(e rdf.EncodedTriple) bool {
		triples = append(triples, st.Dict().Decode(e))
		return true
	})
	return st, triples
}

func mustApply(st *store.Store, d store.Delta) {
	if _, err := st.Apply(d); err != nil {
		panic(err)
	}
}

// diffVar picks a variable name.
func diffVar(r *rand.Rand) string { return string(rune('a' + r.Intn(4))) }

// diffPos builds a pattern position: a variable, or a constant drawn from
// the store pools (sometimes one that is not in the store at all).
func diffPos(r *rand.Rand, pool string, n int, varProb float64) TermOrVar {
	if r.Float64() < varProb {
		return V(diffVar(r))
	}
	if r.Intn(8) == 0 {
		return T(ex("never-interned"))
	}
	return T(ex(fmt.Sprintf("%s%d", pool, r.Intn(n))))
}

func diffPattern(r *rand.Rand) TriplePattern {
	return TriplePattern{
		S: diffPos(r, "s", 8, 0.6),
		P: diffPos(r, "p", 4, 0.15),
		O: diffPos(r, "o", 8, 0.6),
	}
}

func diffGroup(r *rand.Rand) *GroupPattern {
	g := &GroupPattern{}
	for i, np := 0, 1+r.Intn(3); i < np; i++ {
		g.Triples = append(g.Triples, diffPattern(r))
	}
	if r.Intn(3) == 0 { // VALUES, with UNDEF and not-in-store terms
		nv := 1 + r.Intn(2)
		vb := &ValuesBlock{}
		for i := 0; i < nv; i++ {
			vb.Vars = append(vb.Vars, diffVar(r))
		}
		for i, nr := 0, 1+r.Intn(3); i < nr; i++ {
			row := make([]rdf.Term, nv)
			for j := range row {
				switch r.Intn(4) {
				case 0: // UNDEF
				case 1:
					row[j] = ex("values-only-term")
				default:
					row[j] = ex(fmt.Sprintf("s%d", r.Intn(8)))
				}
			}
			vb.Rows = append(vb.Rows, row)
		}
		g.Values = append(g.Values, vb)
	}
	if r.Intn(3) == 0 { // UNION of two single-pattern branches
		g.Unions = append(g.Unions, []*GroupPattern{
			{Triples: []TriplePattern{diffPattern(r)}},
			{Triples: []TriplePattern{diffPattern(r)}},
		})
	}
	if r.Intn(3) == 0 { // OPTIONAL
		g.Optionals = append(g.Optionals, &GroupPattern{
			Triples: []TriplePattern{diffPattern(r)},
		})
	}
	if r.Intn(3) == 0 { // FILTER
		v := &VarExpr{Name: diffVar(r)}
		var f Expr
		switch r.Intn(7) {
		case 0:
			f = &FuncExpr{Name: "BOUND", Args: []Expr{v}}
		case 1:
			f = &FuncExpr{Name: "ISIRI", Args: []Expr{v}}
		case 2:
			f = &BinaryExpr{Op: "!=", Left: v, Right: &ConstExpr{Term: ex(fmt.Sprintf("o%d", r.Intn(8)))}}
		case 3:
			// Equality against a constant: IRI or typed literal, both
			// sides' coercion rules must survive the ID fast path.
			c := &ConstExpr{Term: ex(fmt.Sprintf("o%d", r.Intn(8)))}
			if r.Intn(2) == 0 {
				c = &ConstExpr{Term: rdf.NewTypedLiteral(fmt.Sprint(r.Intn(9)+1), rdf.XSDInteger)}
			}
			f = &BinaryExpr{Op: "=", Left: v, Right: c}
		case 4:
			// sameTerm with a constant, in either argument order —
			// exercises the pure ID-equality path, including constants
			// that are not in the store at all.
			var c Expr = &ConstExpr{Term: ex(fmt.Sprintf("s%d", r.Intn(10)))}
			args := []Expr{v, c}
			if r.Intn(2) == 0 {
				args = []Expr{c, v}
			}
			f = &FuncExpr{Name: "SAMETERM", Args: args}
		case 5:
			// Two-variable filter: keeps the general decode bridge (and
			// its slot-keyed scratch) under differential coverage.
			f = &BinaryExpr{Op: "=", Left: v, Right: &VarExpr{Name: diffVar(r)}}
		default:
			f = &BinaryExpr{Op: "<", Left: v, Right: &NumExpr{Val: float64(r.Intn(10))}}
		}
		g.Filters = append(g.Filters, f)
	}
	if r.Intn(5) == 0 { // grouped subselect: { SELECT ?x (COUNT(*) AS ?n) ... }
		x := diffVar(r)
		g.SubSelects = append(g.SubSelects, &Query{
			Items: []SelectItem{
				{Var: x},
				{Var: "n", Expr: &AggExpr{Op: "COUNT", Star: true}},
			},
			Where:   &GroupPattern{Triples: []TriplePattern{{S: V(x), P: diffPos(r, "p", 4, 0), O: V("subobj")}}},
			GroupBy: []string{x},
			Limit:   -1,
		})
	}
	return g
}

// diffAgg builds an order-insensitive aggregate expression.
func diffAgg(r *rand.Rand) Expr {
	v := &VarExpr{Name: diffVar(r)}
	switch r.Intn(5) {
	case 0:
		return &AggExpr{Op: "COUNT", Star: true}
	case 1:
		return &AggExpr{Op: "COUNT", Arg: v}
	case 2:
		return &AggExpr{Op: "COUNT", Arg: v, Distinct: true}
	case 3:
		return &AggExpr{Op: "MIN", Arg: v}
	default:
		return &AggExpr{Op: "SUM", Arg: v}
	}
}

func genDiffQuery(r *rand.Rand) *Query {
	q := &Query{Where: diffGroup(r), Limit: -1}
	if r.Intn(7) == 0 {
		q.Ask = true
		return q
	}
	switch {
	case r.Intn(4) == 0: // grouped
		nby := 1 + r.Intn(2)
		for i := 0; i < nby; i++ {
			v := diffVar(r)
			q.GroupBy = append(q.GroupBy, v)
			q.Items = append(q.Items, SelectItem{Var: v})
		}
		q.Items = append(q.Items, SelectItem{Var: "agg", Expr: diffAgg(r)})
		if r.Intn(3) == 0 {
			q.Having = append(q.Having, &BinaryExpr{
				Op:    ">",
				Left:  &AggExpr{Op: "COUNT", Star: true},
				Right: &NumExpr{Val: float64(r.Intn(3))},
			})
		}
	case r.Intn(3) == 0:
		q.Star = true
	default:
		for i, np := 0, 1+r.Intn(3); i < np; i++ {
			q.Items = append(q.Items, SelectItem{Var: diffVar(r)})
		}
	}
	if r.Intn(3) == 0 {
		q.Distinct = true
	}
	if r.Intn(3) == 0 {
		q.OrderBy = append(q.OrderBy, OrderKey{
			Expr: &VarExpr{Name: diffVar(r)},
			Desc: r.Intn(2) == 0,
		})
	}
	return q
}

// TestStreamingMatchesLegacyDifferential is the core equivalence property:
// random queries must produce identical row sets on both executors.
func TestStreamingMatchesLegacyDifferential(t *testing.T) {
	for _, seed := range []int64{7, 23, 99, 2026} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { diffTrials(t, seed) })
	}
}

func diffTrials(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	ctx := context.Background()
	for trial := 0; trial < 400; trial++ {
		st, _ := genDiffStore(r)
		stream := NewEngine(st)
		legacy := newOracle(st)
		q := genDiffQuery(r)

		resS, errS := stream.Execute(ctx, q)
		resL, errL := legacy.Execute(ctx, q)
		if (errS == nil) != (errL == nil) {
			t.Fatalf("trial %d: error mismatch: stream=%v legacy=%v\nquery:\n%s", trial, errS, errL, q)
		}
		if errS != nil {
			continue
		}
		if q.Ask {
			if resS.AskTrue != resL.AskTrue {
				t.Fatalf("trial %d: ASK mismatch: stream=%v legacy=%v\nquery:\n%s", trial, resS.AskTrue, resL.AskTrue, q)
			}
			continue
		}
		vs, vl := append([]string(nil), resS.Vars...), append([]string(nil), resL.Vars...)
		sort.Strings(vs)
		sort.Strings(vl)
		if fmt.Sprint(vs) != fmt.Sprint(vl) {
			t.Fatalf("trial %d: vars mismatch: stream=%v legacy=%v\nquery:\n%s", trial, resS.Vars, resL.Vars, q)
		}
		if !sameSolutions(resS.Rows, resL.Rows) {
			t.Fatalf("trial %d: row sets differ (%d vs %d rows)\nquery:\n%s\nstream=%v\nlegacy=%v",
				trial, len(resS.Rows), len(resL.Rows), q, resS.Rows, resL.Rows)
		}
	}
}

// TestStreamingCancellationMidJoin asserts that cancellation aborts even a
// single huge pattern join promptly: the query below would enumerate an
// astronomically large cross product if the in-loop context checks did not
// fire.
func TestStreamingCancellationMidJoin(t *testing.T) {
	st := store.New(4096)
	var ts []rdf.Triple
	for i := 0; i < 2000; i++ {
		ts = append(ts, rdf.Triple{S: ex(fmt.Sprintf("s%d", i)), P: ex("p"), O: ex(fmt.Sprintf("o%d", i))})
	}
	if _, err := st.Load(ts); err != nil {
		t.Fatal(err)
	}
	src := `SELECT ?a ?b ?c WHERE { ?a ?p1 ?x . ?b ?p2 ?y . ?c ?p3 ?z . }`
	for name, query := range map[string]func(context.Context, string) (*Result, error){
		"stream": NewEngine(st).Query,
		"oracle": newOracle(st).Query,
	} {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, err := query(ctx, src)
			done <- err
		}()
		cancel()
		err := <-done
		if err == nil {
			t.Fatalf("%s: cancelled mid-join query should fail", name)
		}
	}
}

// TestStreamingCancellationMidLeftJoin covers the operator loops beyond
// the BGP: both OPTIONAL sides evaluate quickly, and the quadratic left
// join is where cancellation must fire.
func TestStreamingCancellationMidLeftJoin(t *testing.T) {
	st := store.New(8192)
	var ts []rdf.Triple
	for i := 0; i < 3000; i++ {
		ts = append(ts, rdf.Triple{S: ex(fmt.Sprintf("s%d", i)), P: ex("p"), O: ex(fmt.Sprintf("o%d", i))})
	}
	if _, err := st.Load(ts); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(st)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		// 3000 left rows x 3000 optional rows, every pair compatible.
		_, err := e.Query(ctx, `SELECT ?a WHERE { ?a <http://example.org/p> ?x . OPTIONAL { ?b <http://example.org/p> ?y . } }`)
		done <- err
	}()
	cancel()
	if err := <-done; err == nil {
		t.Fatal("cancelled mid-left-join query should fail")
	}
}

// genCyclicQuery builds the BGP shapes the leapfrog operator and the
// orderer find hardest: triangles, diamonds, and high-fanout subject
// stars.
func genCyclicQuery(r *rand.Rand) *Query {
	p := func() TermOrVar { return T(ex(fmt.Sprintf("p%d", r.Intn(4)))) }
	var tps []TriplePattern
	switch r.Intn(3) {
	case 0: // triangle ?a→?b→?c→?a
		tps = []TriplePattern{
			{S: V("a"), P: p(), O: V("b")},
			{S: V("b"), P: p(), O: V("c")},
			{S: V("c"), P: p(), O: V("a")},
		}
	case 1: // diamond ?a→?b→?d and ?a→?c→?d
		tps = []TriplePattern{
			{S: V("a"), P: p(), O: V("b")},
			{S: V("b"), P: p(), O: V("d")},
			{S: V("a"), P: p(), O: V("c")},
			{S: V("c"), P: p(), O: V("d")},
		}
	default: // star: 3-5 patterns fanning out of one subject
		n := 3 + r.Intn(3)
		for i := 0; i < n; i++ {
			tps = append(tps, TriplePattern{S: V("a"), P: p(), O: diffPos(r, "o", 8, 0.5)})
		}
	}
	// Shuffle so the planner, not the generator, decides the join order.
	r.Shuffle(len(tps), func(i, j int) { tps[i], tps[j] = tps[j], tps[i] })
	return &Query{Star: true, Where: &GroupPattern{Triples: tps}, Limit: -1}
}

// executeCascaded runs a BGP-only query the way Execute does, except that
// its root BGP compiles without leapfrog groups: every pattern is its own
// cascaded probe step, through the same runner. The executor takes this
// path for a BGP that a subselect joins before.
func executeCascaded(ctx context.Context, e *Engine, q *Query) (*Result, error) {
	env := newExecEnv(e.st.Snapshot())
	slots := groupSlots(q.Where)
	seed := newIDRows(slots.width())
	seed.push(make([]rdf.ID, slots.width()))
	out := newIDRows(slots.width())
	if err := e.runBGP(ctx, seed, q.Where.Triples, slots, out, env, false); err != nil {
		return nil, err
	}
	proj, vars, err := e.finishIDs(ctx, q, out, slots, env)
	if err != nil {
		return nil, err
	}
	return env.table(proj, vars).Result(), nil
}

// TestCyclicStarDifferential drives the cyclic and star shapes through
// every path the executor chooses between, and the oracle must agree on
// the row set of each: leapfrog groups (Execute), cascaded probes
// (executeCascaded), and a BGP padded past ten patterns.
func TestCyclicStarDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(512))
	ctx := context.Background()
	for trial := 0; trial < 300; trial++ {
		st, _ := genDiffStore(r)
		q := genCyclicQuery(r)

		resL, err := newOracle(st).Execute(ctx, q)
		if err != nil {
			t.Fatal(err)
		}

		// Repeating a pattern whose variables are all bound re-probes a
		// triple that is known to be there: the solution multiset is
		// unchanged, only the plan the orderer builds is longer.
		padded := *q
		padded.Where = &GroupPattern{Triples: append([]TriplePattern(nil), q.Where.Triples...)}
		for len(padded.Where.Triples) <= 10 {
			padded.Where.Triples = append(padded.Where.Triples, q.Where.Triples...)
		}

		for _, cfg := range []struct {
			cascaded bool
			padded   bool
		}{
			{}, {cascaded: true}, {padded: true},
		} {
			e := NewEngine(st)
			exec := e.Execute
			if cfg.cascaded {
				exec = func(ctx context.Context, q *Query) (*Result, error) { return executeCascaded(ctx, e, q) }
			}
			run := q
			if cfg.padded {
				run = &padded
			}
			res, err := exec(ctx, run)
			if err != nil {
				t.Fatal(err)
			}
			if !sameSolutions(res.Rows, resL.Rows) {
				t.Fatalf("trial %d cfg %+v: row set diverges from oracle (%d vs %d rows)\nquery:\n%s",
					trial, cfg, len(res.Rows), len(resL.Rows), run)
			}
		}
	}
}

// TestMergeLeafIntersection pins the sorted-postings merge join: two
// single-variable patterns over the same variable must yield exactly the
// intersection, identically on both executors.
func TestMergeLeafIntersection(t *testing.T) {
	st := store.New(64)
	for i := 0; i < 20; i++ {
		st.Add(rdf.Triple{S: ex(fmt.Sprintf("i%d", i)), P: rdf.TypeIRI, O: ex("A")})
		if i%2 == 0 {
			st.Add(rdf.Triple{S: ex(fmt.Sprintf("i%d", i)), P: rdf.TypeIRI, O: ex("B")})
		}
		if i%3 == 0 {
			st.Add(rdf.Triple{S: ex(fmt.Sprintf("i%d", i)), P: ex("p"), O: ex(fmt.Sprintf("v%d", i))})
		}
	}
	src := `SELECT ?s ?v WHERE {
  ?s a <http://example.org/A> .
  ?s a <http://example.org/B> .
  ?s <http://example.org/p> ?v . }`
	stream := NewEngine(st)
	legacy := newOracle(st)
	rs, err := stream.Query(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	rl, err := legacy.Query(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	// i in {0,6,12,18}: divisible by 6 (types A and B) with property p.
	if len(rs.Rows) != 4 {
		t.Fatalf("stream rows = %d, want 4", len(rs.Rows))
	}
	if !sameSolutions(rs.Rows, rl.Rows) {
		t.Fatalf("merge-join diverged: stream=%v legacy=%v", rs.Rows, rl.Rows)
	}
}
