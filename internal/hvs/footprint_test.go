package hvs

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"elinda/internal/rdf"
	"elinda/internal/sparql"
)

func fpOf(t *testing.T, src string) *sparql.Footprint {
	t.Helper()
	fp := sparql.QueryFootprint(src)
	if fp.Wild {
		t.Fatalf("footprint of %q unexpectedly wild", src)
	}
	return fp
}

func opsFor(triples ...rdf.Triple) []rdf.TripleOp {
	ops := make([]rdf.TripleOp, len(triples))
	for i, tr := range triples {
		ops[i] = rdf.Insert(tr)
	}
	return ops
}

func triple(s, p, o string) rdf.Triple {
	return rdf.Triple{S: rdf.NewIRI("http://x/" + s), P: rdf.NewIRI("http://x/" + p), O: rdf.NewIRI("http://x/" + o)}
}

// TestApplyDeltaRetainsDisjoint: entries whose footprint is disjoint
// from the mutation survive it, keep serving at the new generation, and
// the overlapping ones are gone.
func TestApplyDeltaRetainsDisjoint(t *testing.T) {
	s := New(time.Millisecond)
	disjoint := "SELECT ?s WHERE { ?s <http://x/pA> ?o }"
	overlapping := "SELECT ?s WHERE { ?s <http://x/pB> ?o }"
	s.RecordFootprint(disjoint, res("a"), time.Second, 1, fpOf(t, disjoint), nil)
	s.RecordFootprint(overlapping, res("b"), time.Second, 1, fpOf(t, overlapping), nil)

	retained, evicted := s.ApplyDelta(1, 3, opsFor(triple("s1", "pB", "o1")), refuse, nil)
	if retained != 1 || evicted != 1 {
		t.Fatalf("ApplyDelta = (%d retained, %d evicted), want (1, 1)", retained, evicted)
	}
	if got, ok := s.Lookup(disjoint, 3); !ok || got.Rows[0]["x"].Value != "http://x/a" {
		t.Fatalf("disjoint entry lost or stale after delta: (%v, %v)", got, ok)
	}
	if _, ok := s.Lookup(overlapping, 3); ok {
		t.Fatal("overlapping entry served after the mutation it depends on")
	}
	st := s.Stats()
	if st.DeltaRetained != 1 || st.DeltaEvictions != 1 {
		t.Fatalf("stats = %+v, want DeltaRetained=1 DeltaEvictions=1", st)
	}
}

// TestApplyDeltaNilFootprintEvicted: entries recorded without a
// footprint are treated as wild and evicted by any delta.
func TestApplyDeltaNilFootprintEvicted(t *testing.T) {
	s := New(time.Millisecond)
	s.RecordFootprint("q", res("a"), time.Second, 1, nil, nil)
	retained, evicted := s.ApplyDelta(1, 2, opsFor(triple("s", "pZ", "o")), refuse, nil)
	if retained != 0 || evicted != 1 {
		t.Fatalf("ApplyDelta = (%d, %d), want (0, 1)", retained, evicted)
	}
	if _, ok := s.Lookup("q", 2); ok {
		t.Fatal("footprint-less entry survived a delta")
	}
}

// TestApplyDeltaWildFootprintEvicted: an explicitly wild footprint
// (unsummarizable query) never survives.
func TestApplyDeltaWildFootprintEvicted(t *testing.T) {
	s := New(time.Millisecond)
	s.RecordFootprint("q", res("a"), time.Second, 1, sparql.WildFootprint(), nil)
	if retained, evicted := s.ApplyDelta(1, 2, opsFor(triple("s", "p", "o")), refuse, nil); retained != 0 || evicted != 1 {
		t.Fatalf("ApplyDelta = (%d, %d), want (0, 1)", retained, evicted)
	}
}

// TestApplyDeltaGenerationMismatch: a delta whose From does not match
// the cache's generation means the cache missed an earlier write — it
// must clear wholesale, footprints notwithstanding.
func TestApplyDeltaGenerationMismatch(t *testing.T) {
	s := New(time.Millisecond)
	q := "SELECT ?s WHERE { ?s <http://x/pA> ?o }"
	s.RecordFootprint(q, res("a"), time.Second, 1, fpOf(t, q), nil)
	// Delta from generation 5: the cache only saw generation 1.
	retained, evicted := s.ApplyDelta(5, 7, opsFor(triple("s", "pZ", "o")), refuse, nil)
	if retained != 0 || evicted != 1 {
		t.Fatalf("mismatched delta = (%d, %d), want wholesale (0, 1)", retained, evicted)
	}
	if _, ok := s.Lookup(q, 7); ok {
		t.Fatal("entry survived a wholesale clear")
	}
}

// TestApplyDeltaGenerationSemantics: survivors are re-tagged to the
// delta's target generation — lookups at to succeed, lookups at any
// other generation still invalidate as before.
func TestApplyDeltaGenerationSemantics(t *testing.T) {
	s := New(time.Millisecond)
	q := "SELECT ?s WHERE { ?s <http://x/pA> ?o }"
	s.RecordFootprint(q, res("a"), time.Second, 1, fpOf(t, q), nil)
	s.ApplyDelta(1, 4, opsFor(triple("s", "pZ", "o")), refuse, nil)
	if _, ok := s.Lookup(q, 4); !ok {
		t.Fatal("survivor not re-tagged to the delta's target generation")
	}
	// A later lookup at a generation the cache never heard about is a
	// foreign write: generation invalidation must still fire.
	if _, ok := s.Lookup(q, 9); ok {
		t.Fatal("entry served at a generation the cache never reached")
	}
	if s.Len() != 0 {
		t.Fatal("generation invalidation no longer clears")
	}
}

// TestApplyDeltaGuardPositions exercises all three guard positions: a
// query guarded by subject or object must react only to triples
// carrying that constant in that position.
func TestApplyDeltaGuardPositions(t *testing.T) {
	cases := []struct {
		name  string
		query string
		hit   rdf.Triple
		miss  rdf.Triple
	}{
		{
			name:  "predicate guard",
			query: "SELECT ?s WHERE { ?s <http://x/p1> ?o }",
			hit:   triple("any", "p1", "any"),
			miss:  triple("p1", "other", "p1"), // the constant elsewhere does not count
		},
		{
			name:  "subject guard",
			query: "SELECT ?p WHERE { <http://x/s1> ?p ?o }",
			hit:   triple("s1", "any", "any"),
			miss:  triple("other", "s1", "s1"),
		},
		{
			name:  "object guard",
			query: "SELECT ?s WHERE { ?s ?p <http://x/o1> }",
			hit:   triple("any", "any", "o1"),
			miss:  triple("o1", "o1", "other"),
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := New(time.Millisecond)
			s.RecordFootprint(c.query, res("a"), time.Second, 1, fpOf(t, c.query), nil)
			if retained, evicted := s.ApplyDelta(1, 2, []rdf.TripleOp{rdf.Insert(c.miss)}, refuse, nil); retained != 1 || evicted != 0 {
				t.Fatalf("miss triple evicted the entry: (%d, %d)", retained, evicted)
			}
			if retained, evicted := s.ApplyDelta(2, 3, []rdf.TripleOp{rdf.Insert(c.hit)}, refuse, nil); retained != 0 || evicted != 1 {
				t.Fatalf("hit triple retained the entry: (%d, %d)", retained, evicted)
			}
		})
	}
}

// TestApplyDeltaDeleteOpsCount: delete ops trigger eviction exactly like
// inserts — removing a triple a query depends on changes its result.
func TestApplyDeltaDeleteOpsCount(t *testing.T) {
	s := New(time.Millisecond)
	q := "SELECT ?s WHERE { ?s <http://x/pA> ?o }"
	s.RecordFootprint(q, res("a"), time.Second, 1, fpOf(t, q), nil)
	if retained, evicted := s.ApplyDelta(1, 2, []rdf.TripleOp{rdf.Delete(triple("s", "pA", "o"))}, refuse, nil); retained != 0 || evicted != 1 {
		t.Fatalf("delete op ignored by invalidation: (%d, %d)", retained, evicted)
	}
}

// TestFootprintRetentionProperty is the randomized soundness check:
// entries are tagged with single-predicate footprints, random deltas
// land, and after every delta each surviving entry's footprint must be
// disjoint from the delta while each evicted entry's must overlap.
func TestFootprintRetentionProperty(t *testing.T) {
	preds := []string{"p0", "p1", "p2", "p3", "p4", "p5", "p6", "p7"}
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 50; round++ {
		s := New(time.Millisecond)
		queries := make(map[string]string, len(preds)) // query → guarded pred
		gen := uint64(1)
		for _, p := range preds {
			q := fmt.Sprintf("SELECT ?s WHERE { ?s <http://x/%s> ?o }", p)
			queries[q] = p
			s.RecordFootprint(q, res(p), time.Second, gen, fpOf(t, q), nil)
		}
		// A few deltas in sequence, each touching a random predicate set.
		alive := make(map[string]bool, len(queries))
		for q := range queries {
			alive[q] = true
		}
		for d := 0; d < 4; d++ {
			touched := map[string]bool{}
			var ops []rdf.TripleOp
			for n := 1 + rng.Intn(3); n > 0; n-- {
				p := preds[rng.Intn(len(preds))]
				touched[p] = true
				ops = append(ops, rdf.Insert(triple(fmt.Sprintf("s%d", rng.Intn(5)), p, "o")))
			}
			wantRetained, wantEvicted := 0, 0
			for q, p := range queries {
				if !alive[q] {
					continue
				}
				if touched[p] {
					wantEvicted++
					alive[q] = false
				} else {
					wantRetained++
				}
			}
			retained, evicted := s.ApplyDelta(gen, gen+1, ops, refuse, nil)
			gen++
			if retained != wantRetained || evicted != wantEvicted {
				t.Fatalf("round %d delta %d: ApplyDelta = (%d, %d), want (%d, %d)",
					round, d, retained, evicted, wantRetained, wantEvicted)
			}
			for q := range queries {
				_, ok := s.Lookup(q, gen)
				if ok != alive[q] {
					t.Fatalf("round %d delta %d: Lookup(%q) = %v, model says %v", round, d, q, ok, alive[q])
				}
			}
		}
	}
}

// TestApplyDeltaFold: an overlapping entry is offered to the fold with
// its Shape. Keeping the answer retains the entry unchanged, a
// rewritten answer replaces it (re-costed, counted as folded and as
// retained), and a refusal or a rewrite past MaxBytes evicts.
// Disjoint entries are never offered.
func TestApplyDeltaFold(t *testing.T) {
	s := New(time.Millisecond)
	s.MaxBytes = 4 * ResultBytes(resN("x", 10))
	q := func(name string) string { return "SELECT ?s WHERE { ?s <http://x/" + name + "> ?o }" }
	for _, name := range []string{"keep", "rewrite", "refuse", "grow"} {
		s.RecordFootprint(q(name), res(name), time.Second, 1, fpOf(t, q(name)), name)
	}
	s.RecordFootprint(q("other"), res("other"), time.Second, 1, fpOf(t, q("other")), "other")
	ops := opsFor(triple("s", "keep", "o"), triple("s", "rewrite", "o"), triple("s", "refuse", "o"), triple("s", "grow", "o"))

	offered := map[string]bool{}
	fold := func(e *Entry) (*sparql.Result, bool) {
		offered[e.Shape.(string)] = true
		switch e.Shape {
		case "keep":
			return e.Result, true
		case "rewrite":
			return res("rewritten"), true
		case "grow":
			return resN("big", 50), true
		}
		return nil, false
	}
	retained, evicted := s.ApplyDelta(1, 2, ops, fold, nil)
	if retained != 3 || evicted != 2 || len(offered) != 4 || offered["other"] {
		t.Fatalf("ApplyDelta = (%d, %d) offering %v, want (3, 2) offering the four overlapping entries", retained, evicted, offered)
	}
	if got, ok := s.Lookup(q("rewrite"), 2); !ok || got.Rows[0]["x"].Value != "http://x/rewritten" {
		t.Fatalf("rewritten entry = (%v, %v)", got, ok)
	}
	if _, ok := s.Lookup(q("keep"), 2); !ok {
		t.Fatal("kept entry lost")
	}
	want := ResultBytes(res("keep")) + ResultBytes(res("rewritten")) + ResultBytes(res("other"))
	if st := s.Stats(); st.DeltaFolded != 1 || st.DeltaRetained != 3 || st.DeltaEvictions != 2 || st.Bytes != want {
		t.Fatalf("stats = %+v, want 1 folded, 3 retained, 2 evicted, %d bytes", st, want)
	}
	if retained, evicted := s.ApplyDelta(2, 3, ops, refuse, nil); retained != 1 || evicted != 2 {
		t.Fatalf("refusing fold: ApplyDelta = (%d, %d), want (1, 2)", retained, evicted)
	}
}

// TestKeptBodies: a body kept beside an entry is returned by LookupKey
// for its content type only, counted exactly in Bytes, kept across a
// write that leaves the answer as it is (a retag, or a fold returning
// the same answer), dropped with the answer when a fold rewrites it or
// a write evicts it, and never attached to an answer the entry no longer
// holds. A body that takes the cache over MaxBytes evicts in LRU order;
// one its entry alone cannot hold is not kept.
func TestKeptBodies(t *testing.T) {
	q := func(name string) string { return "SELECT ?s WHERE { ?s <http://x/" + name + "> ?o }" }
	body := []byte(`{"kept":true}`)
	s := New(time.Millisecond)
	for _, name := range []string{"retag", "same", "rewrite", "evict"} {
		s.RecordFootprint(q(name), res(name), time.Second, 1, fpOf(t, q(name)), name)
	}
	results := s.Stats().Bytes
	for _, name := range []string{"retag", "same", "rewrite", "evict"} {
		r, b, ok := s.LookupKey(q(name), 1, "application/json")
		if !ok || b != nil {
			t.Fatalf("%s: first lookup = (%v, %q)", name, ok, b)
		}
		s.KeepBodyKey(q(name), r, "application/json", body)
	}
	if got, want := s.Stats().Bytes, results+4*int64(len(body)); got != want {
		t.Fatalf("Bytes = %d, want the results' %d plus four bodies: %d", got, results, want)
	}
	if _, b, _ := s.LookupKey(q("same"), 1, "text/csv"); b != nil {
		t.Fatalf("another content type's lookup returned %q", b)
	}
	if _, b, _ := s.LookupKey(q("same"), 1, "application/json"); string(b) != string(body) {
		t.Fatalf("kept body = %q", b)
	}

	ops := opsFor(triple("s", "same", "o"), triple("s", "rewrite", "o"), triple("s", "evict", "o"))
	s.ApplyDelta(1, 2, ops, func(e *Entry) (*sparql.Result, bool) {
		switch e.Shape {
		case "same":
			return e.Result, true
		case "rewrite":
			return res("rewritten"), true
		}
		return nil, false
	}, nil)
	for name, want := range map[string]string{"retag": string(body), "same": string(body), "rewrite": ""} {
		if _, b, ok := s.LookupKey(q(name), 2, "application/json"); !ok || string(b) != want {
			t.Errorf("%s after the write: body %q (cached %v), want %q", name, b, ok, want)
		}
	}
	rewritten := ResultBytes(res("rewritten"))
	if got, want := s.Stats().Bytes, results-ResultBytes(res("rewrite"))-ResultBytes(res("evict"))+rewritten+2*int64(len(body)); got != want {
		t.Fatalf("Bytes after the write = %d, want %d", got, want)
	}
	s.KeepBodyKey(q("rewrite"), res("rewrite"), "application/json", body) // the old answer: nothing to keep it for
	if _, b, _ := s.LookupKey(q("rewrite"), 2, "application/json"); b != nil {
		t.Fatalf("a body of the pre-write answer was kept: %q", b)
	}

	// Budget: room for three results and one body. "a" is the least
	// recently used when "c"'s body lands, so it goes.
	s = New(time.Millisecond)
	one := ResultBytes(res("a"))
	big := make([]byte, one)
	s.MaxBytes = 4*one + one/2
	for _, name := range []string{"a", "b", "c"} {
		s.RecordFootprint(q(name), res(name), time.Second, 1, nil, nil)
	}
	s.Lookup(q("b"), 1)
	r, _, _ := s.LookupKey(q("c"), 1, "application/json")
	s.KeepBodyKey(q("c"), r, "application/json", big)
	if _, ok := s.Entry(q("b")); !ok || s.Len() != 3 {
		t.Fatalf("a body within budget evicted: %d entries", s.Len())
	}
	s.KeepBodyKey(q("c"), r, "text/csv", big)
	if _, ok := s.Entry(q("a")); ok || s.Len() != 2 || s.Stats().Evictions != 1 {
		t.Fatalf("over budget: %d entries, %d evictions; want a evicted", s.Len(), s.Stats().Evictions)
	}
	if got, want := s.Stats().Bytes, 2*one+2*int64(len(big)); got != want || got > s.MaxBytes {
		t.Fatalf("Bytes = %d, want %d within %d", got, want, s.MaxBytes)
	}
	s.KeepBodyKey(q("c"), r, "application/xml", make([]byte, s.MaxBytes))
	if _, b, _ := s.LookupKey(q("c"), 1, "application/xml"); b != nil || s.Len() != 2 {
		t.Fatalf("a body larger than the budget was kept (%d entries left)", s.Len())
	}
}
