package incremental

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"elinda/internal/rdf"
	"elinda/internal/store"
)

func ex(s string) rdf.Term { return rdf.NewIRI("http://example.org/" + s) }

// buildGraph creates a randomized graph with classes C0..C4 under Root,
// instances typed into them, properties p0..p3, and cross links.
func buildGraph(t *testing.T, seed int64, nInst int) (*store.Store, *rand.Rand) {
	t.Helper()
	return buildGraphB(t, seed, nInst)
}

// buildGraphB is buildGraph for both tests and benchmarks.
func buildGraphB(t testing.TB, seed int64, nInst int) (*store.Store, *rand.Rand) {
	st := store.New(nInst * 8)
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < 5; i++ {
		st.Add(rdf.Triple{S: ex(fmt.Sprintf("C%d", i)), P: rdf.SubClassOfIRI, O: ex("Root")})
	}
	for i := 0; i < nInst; i++ {
		inst := ex(fmt.Sprintf("inst%d", i))
		class := ex(fmt.Sprintf("C%d", r.Intn(5)))
		st.Add(rdf.Triple{S: inst, P: rdf.TypeIRI, O: class})
		st.Add(rdf.Triple{S: inst, P: rdf.TypeIRI, O: ex("Root")})
		for j := 0; j < r.Intn(4); j++ {
			p := ex(fmt.Sprintf("p%d", r.Intn(4)))
			st.Add(rdf.Triple{S: inst, P: p, O: ex(fmt.Sprintf("obj%d", r.Intn(50)))})
		}
	}
	return st, r
}

func id(t *testing.T, st *store.Store, name string) rdf.ID {
	t.Helper()
	v, ok := st.Dict().Lookup(ex(name))
	if !ok {
		t.Fatalf("%s not interned", name)
	}
	return v
}

func TestRunRoundsAndCompletion(t *testing.T) {
	st, _ := buildGraph(t, 1, 100)
	total := st.Len()
	ev := New(st, Config{ChunkSize: 64})
	agg := NewPropertyAggregator(nil, false)
	var rounds []Snapshot
	final, err := ev.Run(context.Background(), agg, func(s Snapshot) bool {
		rounds = append(rounds, s)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if !final.Complete {
		t.Error("final snapshot not complete")
	}
	if final.TriplesSeen != total {
		t.Errorf("seen = %d, want %d", final.TriplesSeen, total)
	}
	wantRounds := (total + 63) / 64
	if len(rounds) != wantRounds {
		t.Errorf("rounds = %d, want %d (total=%d)", len(rounds), wantRounds, total)
	}
	// Triples seen must be monotone.
	for i := 1; i < len(rounds); i++ {
		if rounds[i].TriplesSeen < rounds[i-1].TriplesSeen {
			t.Error("TriplesSeen not monotone")
		}
	}
}

// TestRunExactMultipleBoundary is the regression test for the spurious
// empty round: a store whose size is an exact multiple of ChunkSize must
// report completion on its last full round, not on an extra empty one.
func TestRunExactMultipleBoundary(t *testing.T) {
	st := store.New(32)
	for i := 0; i < 20; i++ {
		st.Add(rdf.Triple{S: ex(fmt.Sprintf("s%d", i)), P: ex("p"), O: ex("o")})
	}
	ev := New(st, Config{ChunkSize: 10})
	var rounds []Snapshot
	final, err := ev.Run(context.Background(), NewPropertyAggregator(nil, false), func(s Snapshot) bool {
		rounds = append(rounds, s)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds) != 2 {
		t.Errorf("rounds = %d, want 2 (no empty completion round)", len(rounds))
	}
	if !final.Complete || final.Round != 2 || final.TriplesSeen != 20 {
		t.Errorf("final snapshot = %+v, want complete round 2 with 20 triples", final)
	}
}

// TestRunReadsOneSnapshot: a run is bound to the snapshot it started on.
// A write landing between rounds (here from inside onRound: one insert,
// one delete of a triple the scan has not reached) must neither shift the
// windows nor move the completeness target — the final counts equal a
// full scan of the snapshot pinned before the run.
func TestRunReadsOneSnapshot(t *testing.T) {
	st, _ := buildGraph(t, 7, 100)
	pinned := st.Snapshot()
	want := NewPropertyAggregator(nil, false)
	var victim rdf.EncodedTriple
	pinned.Scan(0, 0, func(e rdf.EncodedTriple) bool {
		want.Observe(e)
		victim = e // the last triple in scan order
		return true
	})

	agg := NewPropertyAggregator(nil, false)
	final, err := New(st, Config{ChunkSize: 16}).Run(context.Background(), agg, func(s Snapshot) bool {
		if s.Round == 1 {
			_, err := st.Apply(store.DeltaOf(
				rdf.Insert(rdf.Triple{S: ex("aaa-late"), P: ex("p0"), O: ex("obj0")}),
				rdf.Delete(pinned.Triple(victim))))
			if err != nil {
				t.Fatal(err)
			}
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if !final.Complete || final.TriplesSeen != pinned.Len() {
		t.Errorf("final = %+v, want complete after the pinned snapshot's %d triples", final, pinned.Len())
	}
	if !reflect.DeepEqual(final.Counts, want.Counts()) || !reflect.DeepEqual(agg.TripleCounts(), want.TripleCounts()) {
		t.Errorf("counts diverge from a full scan of the pinned snapshot:\n got %v / %v\nwant %v / %v",
			final.Counts, agg.TripleCounts(), want.Counts(), want.TripleCounts())
	}
}

func TestRunMaxRoundsStopsEarly(t *testing.T) {
	st, _ := buildGraph(t, 2, 200)
	ev := New(st, Config{ChunkSize: 10, MaxRounds: 3})
	agg := NewPropertyAggregator(nil, false)
	final, err := ev.Run(context.Background(), agg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.Round != 3 {
		t.Errorf("rounds = %d, want 3", final.Round)
	}
	if final.TriplesSeen != 30 {
		t.Errorf("seen = %d, want 30", final.TriplesSeen)
	}
	if final.Complete {
		t.Error("k-bounded run should not report complete")
	}
}

func TestRunCallbackStops(t *testing.T) {
	st, _ := buildGraph(t, 3, 200)
	ev := New(st, Config{ChunkSize: 10})
	agg := NewPropertyAggregator(nil, false)
	final, err := ev.Run(context.Background(), agg, func(s Snapshot) bool {
		return s.Round < 2
	})
	if err != nil {
		t.Fatal(err)
	}
	if final.Round != 2 {
		t.Errorf("stopped at round %d, want 2", final.Round)
	}
}

func TestRunContextCancel(t *testing.T) {
	st, _ := buildGraph(t, 4, 50)
	ev := New(st, Config{ChunkSize: 10})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ev.Run(ctx, NewPropertyAggregator(nil, false), nil); err == nil {
		t.Error("cancelled run should error")
	}
}

// TestIncrementalConvergence (experiment T4): the chunked aggregation must
// converge to exactly the single-shot full-scan result, for every
// aggregator kind and several chunk sizes.
func TestIncrementalConvergence(t *testing.T) {
	st, _ := buildGraph(t, 5, 300)
	typeID := st.TypeID()
	root := id(t, st, "Root")
	instances := st.Snapshot().SubjectsOfType(root)

	subclasses := make([]rdf.ID, 5)
	for i := range subclasses {
		subclasses[i] = id(t, st, fmt.Sprintf("C%d", i))
	}

	fullScan := func(mk func() Aggregator) map[rdf.ID]int {
		agg := mk()
		st.Snapshot().Scan(0, 0, func(e rdf.EncodedTriple) bool {
			agg.Observe(e)
			return true
		})
		return agg.Counts()
	}

	kinds := map[string]func() Aggregator{
		"subclass": func() Aggregator {
			return NewSubclassAggregator(typeID, instances, subclasses)
		},
		"property-out": func() Aggregator {
			return NewPropertyAggregator(instances, false)
		},
		"property-in": func() Aggregator {
			return NewPropertyAggregator(instances, true)
		},
	}
	for name, mk := range kinds {
		want := fullScan(mk)
		for _, chunk := range []int{1, 7, 100, 1_000_000} {
			ev := New(st, Config{ChunkSize: chunk})
			agg := mk()
			final, err := ev.Run(context.Background(), agg, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(final.Counts, want) {
				t.Errorf("%s chunk=%d: incremental result differs from full scan", name, chunk)
			}
		}
	}
}

func TestPartialCountsNeverExceedFinal(t *testing.T) {
	st, _ := buildGraph(t, 6, 200)
	ev := New(st, Config{ChunkSize: 25})
	agg := NewPropertyAggregator(nil, false)
	var partials []map[rdf.ID]int
	final, err := ev.Run(context.Background(), agg, func(s Snapshot) bool {
		partials = append(partials, s.Counts)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range partials {
		for prop, c := range p {
			if c > final.Counts[prop] {
				t.Errorf("round %d: partial %d exceeds final %d for %v", i, c, final.Counts[prop], prop)
			}
		}
	}
}

func TestSubclassAggregatorRestrictsToSet(t *testing.T) {
	st := store.New(16)
	st.Load([]rdf.Triple{
		{S: ex("a"), P: rdf.TypeIRI, O: ex("C")},
		{S: ex("b"), P: rdf.TypeIRI, O: ex("C")},
		{S: ex("c"), P: rdf.TypeIRI, O: ex("D")},
	})
	cid := id(t, st, "C")
	aID := id(t, st, "a")
	agg := NewSubclassAggregator(st.TypeID(), []rdf.ID{aID}, []rdf.ID{cid})
	st.Snapshot().Scan(0, 0, func(e rdf.EncodedTriple) bool { agg.Observe(e); return true })
	counts := agg.Counts()
	if counts[cid] != 1 {
		t.Errorf("restricted count = %d, want 1", counts[cid])
	}
}

func TestSubclassAggregatorDeduplicates(t *testing.T) {
	st := store.New(8)
	st.Add(rdf.Triple{S: ex("a"), P: rdf.TypeIRI, O: ex("C")})
	cid := id(t, st, "C")
	agg := NewSubclassAggregator(st.TypeID(), nil, []rdf.ID{cid})
	e := rdf.EncodedTriple{S: id(t, st, "a"), P: st.TypeID(), O: cid}
	agg.Observe(e)
	agg.Observe(e) // same triple seen again (overlapping windows)
	if agg.Counts()[cid] != 1 {
		t.Errorf("duplicate observation double-counted")
	}
}

func TestPropertyAggregatorTripleCounts(t *testing.T) {
	st := store.New(8)
	st.Load([]rdf.Triple{
		{S: ex("s"), P: ex("p"), O: ex("o1")},
		{S: ex("s"), P: ex("p"), O: ex("o2")},
		{S: ex("t"), P: ex("p"), O: ex("o1")},
	})
	agg := NewPropertyAggregator(nil, false)
	st.Snapshot().Scan(0, 0, func(e rdf.EncodedTriple) bool { agg.Observe(e); return true })
	p := id(t, st, "p")
	if agg.Counts()[p] != 2 {
		t.Errorf("subject count = %d, want 2", agg.Counts()[p])
	}
	if agg.TripleCounts()[p] != 3 {
		t.Errorf("triple count = %d, want 3", agg.TripleCounts()[p])
	}
}

func TestObjectAggregatorBothOrders(t *testing.T) {
	// The connecting triple and the object's type assertion can arrive in
	// either order across chunks; both must yield the same counts.
	mk := func(order []rdf.Triple) map[string]int {
		st := store.New(8)
		st.Load(order)
		s := id(t, st, "s")
		p := id(t, st, "influencedBy")
		agg := NewObjectAggregator(st.TypeID(), p, []rdf.ID{s}, false)
		st.Snapshot().Scan(0, 0, func(e rdf.EncodedTriple) bool { agg.Observe(e); return true })
		out := map[string]int{}
		for cid, n := range agg.Counts() {
			out[st.Dict().Term(cid).Value] = n
		}
		return out
	}
	link := rdf.Triple{S: ex("s"), P: ex("influencedBy"), O: ex("obj")}
	typ := rdf.Triple{S: ex("obj"), P: rdf.TypeIRI, O: ex("Scientist")}
	c1 := mk([]rdf.Triple{link, typ})
	c2 := mk([]rdf.Triple{typ, link})
	if !reflect.DeepEqual(c1, c2) {
		t.Errorf("order sensitivity: %v vs %v", c1, c2)
	}
	if len(c1) != 1 {
		t.Fatalf("counts = %v", c1)
	}
	for _, v := range c1 {
		if v != 1 {
			t.Errorf("count = %d, want 1", v)
		}
	}
}

func TestObjectAggregatorIncoming(t *testing.T) {
	st := store.New(8)
	st.Load([]rdf.Triple{
		{S: ex("work"), P: ex("author"), O: ex("phil")},
		{S: ex("work"), P: rdf.TypeIRI, O: ex("Book")},
	})
	phil := id(t, st, "phil")
	author := id(t, st, "author")
	agg := NewObjectAggregator(st.TypeID(), author, []rdf.ID{phil}, true)
	st.Snapshot().Scan(0, 0, func(e rdf.EncodedTriple) bool { agg.Observe(e); return true })
	book := id(t, st, "Book")
	if agg.Counts()[book] != 1 {
		t.Errorf("incoming object count = %v", agg.Counts())
	}
	objs := agg.ConnectedObjects()
	if len(objs) != 1 || objs[0] != id(t, st, "work") {
		t.Errorf("connected objects = %v", objs)
	}
}

func TestEmptyStoreRun(t *testing.T) {
	st := store.New(0)
	ev := New(st, Config{ChunkSize: 10})
	final, err := ev.Run(context.Background(), NewPropertyAggregator(nil, false), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !final.Complete || final.TriplesSeen != 0 {
		t.Errorf("empty store snapshot: %+v", final)
	}
}

func TestDefaultChunkSize(t *testing.T) {
	st := store.New(0)
	ev := New(st, Config{})
	if ev.cfg.ChunkSize != DefaultChunkSize {
		t.Errorf("default chunk = %d", ev.cfg.ChunkSize)
	}
}
