package sparql

import (
	"context"
	"fmt"
	"testing"

	"elinda/internal/rdf"
	"elinda/internal/store"
)

// compileFor compiles tps against a fresh slot table in the given order.
func compileFor(st *store.Store, tps []TriplePattern) ([]joinStep, *slotTable) {
	slots := groupSlots(&GroupPattern{Triples: tps})
	env := newExecEnv(st.Snapshot())
	pats := make([]compiledPattern, len(tps))
	for i, tp := range tps {
		pats[i] = compilePattern(tp, slots, env.dict)
	}
	return compileSteps(pats, nil, slots.width(), true), slots
}

// TestCompileStepsStar: two fully-constant-but-one patterns over the
// same variable fold into one leapfrog group; the two-variable pattern
// stays an ordinary step.
func TestCompileStepsStar(t *testing.T) {
	st := store.New(64)
	st.Add(rdf.Triple{S: ex("i"), P: rdf.TypeIRI, O: ex("A")})
	st.Add(rdf.Triple{S: ex("i"), P: rdf.TypeIRI, O: ex("B")})
	st.Add(rdf.Triple{S: ex("i"), P: ex("p"), O: ex("v")})
	tps := []TriplePattern{
		{S: V("s"), P: T(rdf.TypeIRI), O: T(ex("A"))},
		{S: V("s"), P: T(rdf.TypeIRI), O: T(ex("B"))},
		{S: V("s"), P: T(ex("p")), O: V("v")},
	}
	steps, slots := compileFor(st, tps)
	if len(steps) != 2 {
		t.Fatalf("steps = %d, want 2", len(steps))
	}
	if len(steps[0].pats) != 2 || steps[0].slot != slots.index["s"] {
		t.Fatalf("step 0 = %d patterns on slot %d, want the 2-pattern group on ?s", len(steps[0].pats), steps[0].slot)
	}
	if len(steps[1].pats) != 1 || steps[1].slot != -1 {
		t.Fatalf("step 1 should be the ordinary ?s p ?v scan")
	}
}

// TestCompileStepsTriangle: in a triangle the closing pattern joins the
// group of the second pattern — both have a single free variable once
// the first pattern bound its two.
func TestCompileStepsTriangle(t *testing.T) {
	st := store.New(64)
	st.Add(rdf.Triple{S: ex("x"), P: ex("e"), O: ex("y")})
	tps := []TriplePattern{
		{S: V("a"), P: T(ex("e")), O: V("b")},
		{S: V("b"), P: T(ex("e")), O: V("c")},
		{S: V("c"), P: T(ex("e")), O: V("a")},
	}
	steps, slots := compileFor(st, tps)
	if len(steps) != 2 {
		t.Fatalf("steps = %d, want 2", len(steps))
	}
	if steps[0].slot != -1 || len(steps[0].pats) != 1 {
		t.Fatalf("step 0 should be the ordinary two-variable scan")
	}
	if len(steps[1].pats) != 2 || steps[1].slot != slots.index["c"] {
		t.Fatalf("step 1 = %d patterns on slot %d, want the triangle-closing group on ?c", len(steps[1].pats), steps[1].slot)
	}
}

// TestCompileStepsRepeatedVar: a ?x p ?x pattern must never join a
// leapfrog group — its self-equality constraint is not a posting list.
func TestCompileStepsRepeatedVar(t *testing.T) {
	st := store.New(64)
	st.Add(rdf.Triple{S: ex("x"), P: ex("e"), O: ex("x")})
	tps := []TriplePattern{
		{S: V("a"), P: T(ex("e")), O: V("a")},
		{S: T(ex("x")), P: T(ex("e")), O: V("a")},
	}
	// ?a e ?a has one distinct free variable but two free positions: it
	// must not seed a group with the second pattern.
	steps, _ := compileFor(st, tps)
	if len(steps) != 2 || len(steps[0].pats) != 1 || len(steps[1].pats) != 1 {
		t.Fatalf("steps = %v, want two ordinary steps", steps)
	}
	// In the other order the single-free patterns do group, and the
	// repeated-variable pattern (fully bound by then) stays out.
	steps, _ = compileFor(st, []TriplePattern{
		{S: T(ex("x")), P: T(ex("e")), O: V("a")},
		{S: V("a"), P: T(ex("e")), O: T(ex("x"))},
		{S: V("a"), P: T(ex("e")), O: V("a")},
	})
	if len(steps) != 2 || len(steps[0].pats) != 2 || len(steps[1].pats) != 1 {
		t.Fatalf("steps = %v, want a 2-pattern group then the repeated-variable probe", steps)
	}
}

// TestLeapfrogTombstoneAudit: the intersection operator reads through
// the tombstone masks a live deletion leaves behind — query results over
// a store with base-resident deletes must equal both the legacy oracle
// on the same store and a fresh store loaded with only the survivors.
func TestLeapfrogTombstoneAudit(t *testing.T) {
	// A dense directed graph over 80 nodes (50 distinct out-edges per
	// node, both parities, so odd cycles exist): triangles are plentiful,
	// and the corpus exceeds the store's direct-base-build threshold, so
	// the deletes below land in the columnar base and leave tombstones
	// rather than shrinking an overlay.
	var ts []rdf.Triple
	for i := 0; i < 4000; i++ {
		s, k := i%80, i/80
		ts = append(ts, rdf.Triple{
			S: ex(fmt.Sprintf("n%d", s)),
			P: ex("edge"),
			O: ex(fmt.Sprintf("n%d", (s*31+k*7+1)%80)),
		})
		if i%3 == 0 {
			ts = append(ts, rdf.Triple{S: ex(fmt.Sprintf("n%d", s)), P: rdf.TypeIRI, O: ex("Hub")})
		}
	}
	live := store.New(0)
	if _, err := live.Load(ts); err != nil {
		t.Fatal(err)
	}
	var ops []rdf.TripleOp
	var survivors []rdf.Triple
	seen := map[rdf.Triple]bool{}
	for i, tr := range ts {
		if seen[tr] {
			continue
		}
		seen[tr] = true
		if i%4 == 0 {
			ops = append(ops, rdf.Delete(tr))
		} else {
			survivors = append(survivors, tr)
		}
	}
	if _, err := live.Apply(store.DeltaOf(ops...)); err != nil {
		t.Fatal(err)
	}
	fresh := store.New(0)
	if _, err := fresh.Load(survivors); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	for _, src := range []string{
		// Triangle: closes through a leapfrog group.
		`SELECT ?a ?b ?c WHERE {
  ?a <http://example.org/edge> ?b .
  ?b <http://example.org/edge> ?c .
  ?c <http://example.org/edge> ?a . }`,
		// Star: type-constrained hub fan-out.
		`SELECT ?s ?o WHERE {
  ?s a <http://example.org/Hub> .
  ?s <http://example.org/edge> ?o .
  ?o a <http://example.org/Hub> . }`,
	} {
		stream := NewEngine(live)
		legacy := newOracle(live)
		freshEng := NewEngine(fresh)
		rs, err := stream.Query(ctx, src)
		if err != nil {
			t.Fatal(err)
		}
		rl, err := legacy.Query(ctx, src)
		if err != nil {
			t.Fatal(err)
		}
		rf, err := freshEng.Query(ctx, src)
		if err != nil {
			t.Fatal(err)
		}
		if len(rs.Rows) == 0 {
			t.Fatalf("query produced no rows — the audit is vacuous:\n%s", src)
		}
		if !sameSolutions(rs.Rows, rl.Rows) {
			t.Fatalf("tombstoned store: stream diverges from legacy (%d vs %d rows)\n%s", len(rs.Rows), len(rl.Rows), src)
		}
		if !sameSolutions(rs.Rows, rf.Rows) {
			t.Fatalf("tombstoned store diverges from a fresh load of the survivors (%d vs %d rows)\n%s", len(rs.Rows), len(rf.Rows), src)
		}
	}
}
