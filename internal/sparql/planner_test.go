package sparql

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"elinda/internal/rdf"
	"elinda/internal/store"
)

// plannerFixture: one selective pattern (?s a Rare) and one broad
// (?s knows ?o). Unplanned order (broad first) materializes everything.
func plannerFixture(t testing.TB) *Engine {
	st := store.New(4096)
	var ts []rdf.Triple
	for i := 0; i < 1000; i++ {
		inst := ex(fmt.Sprintf("i%d", i))
		ts = append(ts, rdf.Triple{S: inst, P: ex("knows"), O: ex(fmt.Sprintf("i%d", (i+1)%1000))})
		if i < 3 {
			ts = append(ts, rdf.Triple{S: inst, P: rdf.TypeIRI, O: ex("Rare")})
		}
	}
	if _, err := st.Load(ts); err != nil {
		t.Fatal(err)
	}
	return NewEngine(st)
}

func TestPlannerOrdersBySelectivity(t *testing.T) {
	e := plannerFixture(t)
	tps := []TriplePattern{
		{S: V("s"), P: T(ex("knows")), O: V("o")},        // 1000 matches
		{S: V("s"), P: T(rdf.TypeIRI), O: T(ex("Rare"))}, // 3 matches
	}
	planned := planPatterns(e.st.Snapshot(), tps)
	if planned[0].P.Term != rdf.TypeIRI {
		t.Errorf("selective pattern not first: %v", planned[0])
	}
}

func TestPlannerPrefersConnectedPatterns(t *testing.T) {
	e := plannerFixture(t)
	// Three patterns; the unconnected one (?x ?y ?z over a different var
	// set) must come last even if mid-cheap.
	tps := []TriplePattern{
		{S: V("x"), P: T(ex("knows")), O: V("y")},
		{S: V("s"), P: T(rdf.TypeIRI), O: T(ex("Rare"))},
		{S: V("s"), P: T(ex("knows")), O: V("o")},
	}
	planned := planPatterns(e.st.Snapshot(), tps)
	if planned[0].P.Term != rdf.TypeIRI {
		t.Fatalf("plan[0] = %v", planned[0])
	}
	// plan[1] must share ?s with plan[0].
	if !planned[1].S.IsVar || planned[1].S.Name != "s" {
		t.Errorf("plan[1] not connected: %v", planned[1])
	}
}

func TestPlannerSameResultsAsUnplanned(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		st := store.New(256)
		for i := 0; i < 200; i++ {
			st.Add(rdf.Triple{
				S: ex(fmt.Sprintf("s%d", r.Intn(20))),
				P: ex(fmt.Sprintf("p%d", r.Intn(5))),
				O: ex(fmt.Sprintf("o%d", r.Intn(20))),
			})
		}
		src := `SELECT ?a ?b WHERE {
  ?a <http://example.org/p0> ?x .
  ?x <http://example.org/p1> ?b .
  ?a <http://example.org/p2> ?y .
}`
		q, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		unplanned := newOracle(st)
		unplanned.order = queryOrder
		r1, err := NewEngine(st).Execute(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := unplanned.Execute(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if !sameSolutions(r1.Rows, r2.Rows) {
			t.Fatalf("trial %d: planner changed results: %d vs %d rows", trial, len(r1.Rows), len(r2.Rows))
		}
	}
}

func TestPlannerUnknownConstantFirst(t *testing.T) {
	e := plannerFixture(t)
	tps := []TriplePattern{
		{S: V("s"), P: T(ex("knows")), O: V("o")},
		{S: V("s"), P: T(ex("neverSeen")), O: V("z")}, // estimate 0
	}
	planned := planPatterns(e.st.Snapshot(), tps)
	if planned[0].P.Term != ex("neverSeen") {
		t.Errorf("zero-cardinality pattern should lead: %v", planned[0])
	}
	// And the query short-circuits to empty.
	q := &Query{Star: true, Where: &GroupPattern{Triples: tps}, Limit: -1}
	res, err := e.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Errorf("rows = %d", len(res.Rows))
	}
}

// crossProducts counts the plan positions that share no variable with
// everything planned before them (the forced cross products).
func crossProducts(tps []TriplePattern) int {
	bound := map[string]bool{}
	n := 0
	for i, tp := range tps {
		conn := false
		for _, tv := range []TermOrVar{tp.S, tp.P, tp.O} {
			if tv.IsVar && bound[tv.Name] {
				conn = true
			}
		}
		if i > 0 && !conn {
			n++
		}
		for _, tv := range []TermOrVar{tp.S, tp.P, tp.O} {
			if tv.IsVar {
				bound[tv.Name] = true
			}
		}
	}
	return n
}

// TestPlannerDisconnectedBGP: a BGP with two components must cross
// exactly once — each component is joined down before the product — and
// evaluating in the planned order must give the rows of the query-order
// evaluation.
func TestPlannerDisconnectedBGP(t *testing.T) {
	st := store.New(1024)
	var ts []rdf.Triple
	for i := 0; i < 50; i++ {
		ts = append(ts, rdf.Triple{S: ex(fmt.Sprintf("a%d", i)), P: ex("p1"), O: ex(fmt.Sprintf("b%d", i%7))})
		ts = append(ts, rdf.Triple{S: ex(fmt.Sprintf("b%d", i%7)), P: ex("p2"), O: ex(fmt.Sprintf("c%d", i%3))})
		if i < 4 {
			ts = append(ts, rdf.Triple{S: ex(fmt.Sprintf("x%d", i)), P: ex("p3"), O: ex(fmt.Sprintf("y%d", i))})
		}
	}
	if _, err := st.Load(ts); err != nil {
		t.Fatal(err)
	}
	tps := []TriplePattern{
		{S: V("a"), P: T(ex("p1")), O: V("b")},
		{S: V("x"), P: T(ex("p3")), O: V("y")},
		{S: V("b"), P: T(ex("p2")), O: V("c")},
	}
	q := &Query{Star: true, Where: &GroupPattern{Triples: tps}, Limit: -1}
	// eval runs the query's one BGP on the oracle in exactly the given order.
	eval := func(order []TriplePattern) []Solution {
		o := newOracle(st)
		o.order = func(*store.Snapshot, []TriplePattern) []TriplePattern { return order }
		res, err := o.Execute(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows
	}
	want := eval(tps)
	snap := st.Snapshot()
	infos, ok := analyzePatterns(snap, tps)
	if !ok {
		t.Fatal("patterns out of the planner's model")
	}
	planned := planOrder(tps, orderGreedy(infos))
	if got := crossProducts(planned); got != 1 {
		t.Errorf("%d cross products in plan %v, want 1", got, planned)
	}
	if got := eval(planned); !sameSolutions(got, want) {
		t.Errorf("ordering changed results: %d vs %d rows", len(got), len(want))
	}
	// The engine agrees too.
	res, err := NewEngine(st).Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !sameSolutions(res.Rows, want) {
		t.Errorf("engine: planner changed results: %d vs %d rows", len(res.Rows), len(want))
	}
}

// TestGreedyCrossProductBlowup pins the greedy fallback's choice when a
// cross product is forced: it must pick the component whose estimated
// blowup (own cardinality × best follow-up join selectivity) is
// smallest, not the component with the smallest raw cardinality.
func TestGreedyCrossProductBlowup(t *testing.T) {
	pat := func(name string, v string) TriplePattern {
		return TriplePattern{S: V(v), P: T(ex(name)), O: T(ex("o"))}
	}
	// Component A (vars v1): cheapRoot card 10, but its only join partner
	// joins almost unselectively (dv 2 over card 1000 → 500 rows/row).
	// Component B (vars v2): card 50 root with a perfectly selective
	// partner (dv 1000 over card 1000 → 1 row/row).
	infos := []patInfo{
		{tp: pat("lone", "v0"), card: 5, vars: 1 << 0, slot: [3]int{0, -1, -1}, dv: [3]float64{5}},
		{tp: pat("cheapRoot", "v1"), card: 10, vars: 1 << 1, slot: [3]int{1, -1, -1}, dv: [3]float64{10}},
		{tp: pat("cheapFollow", "v1"), card: 1000, vars: 1 << 1, slot: [3]int{1, -1, -1}, dv: [3]float64{2}},
		{tp: pat("wideRoot", "v2"), card: 50, vars: 1 << 2, slot: [3]int{2, -1, -1}, dv: [3]float64{50}},
		{tp: pat("wideFollow", "v2"), card: 1000, vars: 1 << 2, slot: [3]int{2, -1, -1}, dv: [3]float64{1000}},
	}
	steps := orderGreedy(infos)
	if steps[0].tp.P.Term != ex("lone") {
		t.Fatalf("steps[0] = %v, want the cheapest pattern", steps[0].tp)
	}
	// The first forced cross product: blowup(cheapRoot) = 10×500 = 5000,
	// blowup(wideRoot) = 50×1 = 50 → wideRoot must win despite 50 > 10.
	if steps[1].tp.P.Term != ex("wideRoot") {
		t.Errorf("fallback picked %v, want wideRoot (smallest estimated blowup)", steps[1].tp)
	}
}
