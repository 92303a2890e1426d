package proxy

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"elinda/internal/core"
	"elinda/internal/decomposer"
	"elinda/internal/rdf"
	"elinda/internal/sparql"
	"elinda/internal/store"
)

// chartStore is a small random graph over 40 nodes typed C0 or C1 and
// five properties, with the hot chart queries the explorer sends for it:
// both property expansions of each class (decomposer) and four object
// expansions (engine, then HVS).
func chartStore(t *testing.T, seed int64) (*store.Store, []rdf.Triple, []string) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	var initial []rdf.Triple
	for i := 0; i < 40; i++ {
		initial = append(initial, rdf.Triple{S: ex(fmt.Sprintf("n%d", i)), P: rdf.TypeIRI, O: ex(fmt.Sprintf("C%d", r.Intn(2)))})
	}
	for i := 0; i < 250; i++ {
		initial = append(initial, randomLink(r))
	}
	st := store.New(1024)
	if _, err := st.Load(initial); err != nil {
		t.Fatal(err)
	}
	var queries []string
	for c := 0; c < 2; c++ {
		class := ex(fmt.Sprintf("C%d", c))
		queries = append(queries,
			core.PropertyExpansionSPARQL(class, false),
			core.PropertyExpansionSPARQL(class, true),
			core.ObjectExpansionSPARQL(class, ex(fmt.Sprintf("p%d", c)), false),
			core.ObjectExpansionSPARQL(class, ex(fmt.Sprintf("p%d", 2+c)), true))
	}
	return st, initial, queries
}

func randomLink(r *rand.Rand) rdf.Triple {
	return rdf.Triple{S: ex(fmt.Sprintf("n%d", r.Intn(40))), P: ex(fmt.Sprintf("p%d", r.Intn(5))), O: ex(fmt.Sprintf("n%d", r.Intn(40)))}
}

// randomDelta is one to three link inserts or deletes of present links,
// and on one delta in six a class-membership flip.
func randomDelta(r *rand.Rand, st *store.Store) store.Delta {
	var d store.Delta
	for k := 1 + r.Intn(3); k > 0; k-- {
		if r.Intn(2) == 0 {
			d.Insert(randomLink(r))
			continue
		}
		var live rdf.Triple
		st.Snapshot().Scan(r.Intn(st.Len()), 1, func(e rdf.EncodedTriple) bool {
			live = st.Dict().Decode(e)
			return false
		})
		if live.P != rdf.TypeIRI {
			d.Delete(live)
		}
	}
	if r.Intn(6) == 0 {
		tr := rdf.Triple{S: ex(fmt.Sprintf("n%d", r.Intn(40))), P: rdf.TypeIRI, O: ex(fmt.Sprintf("C%d", r.Intn(2)))}
		if st.Snapshot().ContainsTriple(tr) {
			d.Delete(tr)
		} else {
			d.Insert(tr)
		}
	}
	return d
}

// TestAnswersAtSomeGenerationUnderWrites is the whole-proxy differential
// under concurrent writes. Readers issue the hot property and object
// expansions through Query, each bracketed by the store generation read
// before and after it, while two writers apply random deltas through
// Apply. Afterwards the acknowledged writes are replayed in generation
// order onto a fresh store, and every answer — whichever tier served it:
// the HVS after a retag, the maintained decomposer memo, a coalesced
// leader or the engine — must equal the engine's answer on the replay at
// one of the generations inside its bracket. With a threshold no answer
// reaches the HVS stays empty, and every property expansion reaches the
// decomposer memo.
func TestAnswersAtSomeGenerationUnderWrites(t *testing.T) {
	t.Run("hvs", func(t *testing.T) { answersUnderWrites(t, Options{HeavyThreshold: time.Nanosecond}) })
	t.Run("no-hvs", func(t *testing.T) { answersUnderWrites(t, Options{HeavyThreshold: time.Hour}) })
}

func answersUnderWrites(t *testing.T, opts Options) {
	const readers, writers, writes = 4, 2, 40
	st, initial, queries := chartStore(t, 11)
	p := New(st, opts)
	gen0 := st.Generation()

	type answer struct {
		query         int
		before, after uint64
		canon, route  string
	}
	var (
		mu      sync.Mutex
		applied []store.ApplyResult
		answers []answer
		wg      sync.WaitGroup
	)
	done := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < writes; i++ {
				time.Sleep(time.Duration(r.Intn(2000)) * time.Microsecond) // let reads interleave
				res, err := p.Apply(randomDelta(r, st))
				if err != nil {
					t.Error(err)
					return
				}
				if res.Changed() {
					mu.Lock()
					applied = append(applied, res)
					mu.Unlock()
				}
			}
		}(w)
	}
	var rg sync.WaitGroup
	for k := 0; k < readers; k++ {
		rg.Add(1)
		go func(k int) {
			defer rg.Done()
			r := rand.New(rand.NewSource(int64(200 + k)))
			for {
				select {
				case <-done:
					return
				default:
				}
				q := r.Intn(len(queries))
				before := st.Generation()
				res, tr, err := p.QueryTraced(context.Background(), queries[q])
				after := st.Generation()
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				answers = append(answers, answer{q, before, after, canon(res), tr.Route.String()})
				mu.Unlock()
			}
		}(k)
	}
	wg.Wait()
	close(done)
	rg.Wait()
	if t.Failed() {
		return
	}

	// Replay the writes in generation order: oracle[i] holds the engine's
	// answers at gens[i].
	sort.Slice(applied, func(i, j int) bool { return applied[i].From < applied[j].From })
	replay := store.New(1024)
	if _, err := replay.Load(initial); err != nil {
		t.Fatal(err)
	}
	eng := sparql.NewEngine(replay)
	gens := []uint64{gen0}
	oracle := [][]string{engineAnswers(t, eng, queries)}
	for i, res := range applied {
		if res.From != gens[i] {
			t.Fatalf("write %d moved generation %d → %d, the previous one ended at %d", i, res.From, res.To, gens[i])
		}
		var d store.Delta
		for _, e := range res.NetDeletes {
			d.Delete(st.Dict().Decode(e))
		}
		for _, e := range res.NetInserts {
			d.Insert(st.Dict().Decode(e))
		}
		if _, err := replay.Apply(d); err != nil {
			t.Fatal(err)
		}
		gens = append(gens, res.To)
		oracle = append(oracle, engineAnswers(t, eng, queries))
	}

	for _, a := range answers {
		lo := sort.Search(len(gens), func(i int) bool { return gens[i] >= a.before })
		ok := false
		for i := lo; i < len(gens) && gens[i] <= a.after; i++ {
			if oracle[i][a.query] == a.canon {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("%s answer to query %d read in generations [%d, %d] matches no generation in that range:\n%s",
				a.route, a.query, a.before, a.after, a.canon)
		}
	}
	counts := p.MetricsSnapshot().Counts
	if hvsOff := opts.HeavyThreshold == time.Hour; (counts["hvs"] == 0) != hvsOff {
		t.Fatalf("HVS answered %d reads with a threshold of %s", counts["hvs"], opts.HeavyThreshold)
	}
	if counts["decomposer"] == 0 || counts["backend"] == 0 {
		t.Fatalf("a tier never answered: %v", counts)
	}
	t.Logf("%d answers over %d writes checked; routes %v", len(answers), len(applied), counts)
}

func engineAnswers(t *testing.T, eng *sparql.Engine, queries []string) []string {
	t.Helper()
	out := make([]string, len(queries))
	for i, q := range queries {
		res, err := eng.Query(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = canon(res)
	}
	return out
}

// TestConcurrentAppliesKeepCaches: concurrent writers through Apply hand
// the caches their deltas in generation order, so the HVS is never
// cleared wholesale and the decomposer memo never dropped. The first
// writes are disjoint from the object expansions' footprints, so those
// answers stay in the HVS; the property expansions never enter it, and
// the maintained memo keeps them. The second writes link and unlink C0 members to
// objects no member reached, on the link property of C0's outgoing object
// expansion: every write crosses zero, and the entry stays cached with
// the writes folded into it.
func TestConcurrentAppliesKeepCaches(t *testing.T) {
	st, _, queries := chartStore(t, 12)
	p := New(st, Options{HeavyThreshold: time.Nanosecond})
	for _, q := range queries {
		if _, err := p.Query(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	if cached := p.HVS().Len(); cached != 4 {
		t.Fatalf("warm-up cached %d answers, want the 4 object expansions", cached)
	}
	// The writes reach no instance, so a carried memo keeps every entry
	// itself; a dropped one would be recomputed into new slices.
	memo := func() (stats [][]decomposer.PropStat) {
		for c := 0; c < 2; c++ {
			class, _ := st.Dict().Lookup(ex(fmt.Sprintf("C%d", c)))
			for _, dir := range []decomposer.Direction{decomposer.Outgoing, decomposer.Incoming} {
				stats = append(stats, p.Decomposer().PropertyStats(class, dir))
			}
		}
		return stats
	}
	warm := memo()

	// Links between untyped nodes over a predicate no query names.
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr := rdf.Triple{S: ex(fmt.Sprintf("w%d", w)), P: ex("unrelated"), O: ex(fmt.Sprintf("o%d", i))}
				if _, err := p.Apply(store.DeltaOf(rdf.Insert(tr))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if s := p.HVS().Stats(); s.Entries != 4 || s.Invalidations != 0 {
		t.Fatalf("concurrent writes cleared the HVS: %+v", s)
	}
	for i, stats := range memo() {
		if len(stats) == 0 || &stats[0] != &warm[i][0] {
			t.Fatalf("concurrent writes dropped memo entry %d", i)
		}
	}

	// One (member, object) pair per writer: an object no C0 member links
	// to via p0, so each insert moves its support 0 → 1 and each delete
	// 1 → 0.
	snap := st.Snapshot()
	dict := st.Dict()
	typeID, p0 := snap.TypeID(), mustLookup(t, st, ex("p0"))
	c0 := mustLookup(t, st, ex("C0"))
	members := snap.SubjectsOfType(c0)
	var pairs [][2]rdf.Term
	for i := 0; i < 40 && len(pairs) < 4; i++ {
		x := mustLookup(t, st, ex(fmt.Sprintf("n%d", i)))
		supported := slices.ContainsFunc(snap.Subjects(p0, x), func(m rdf.ID) bool { return snap.ContainsID(m, typeID, c0) })
		if !supported {
			pairs = append(pairs, [2]rdf.Term{dict.Term(members[len(pairs)]), dict.Term(x)})
		}
	}
	if len(pairs) < 4 {
		t.Fatalf("only %d unsupported objects", len(pairs))
	}
	folded := p.HVS().Stats().DeltaFolded
	for _, pair := range pairs {
		wg.Add(1)
		go func(pair [2]rdf.Term) {
			defer wg.Done()
			tr := rdf.Triple{S: pair[0], P: ex("p0"), O: pair[1]}
			for i := 0; i < 50; i++ {
				d := store.DeltaOf(rdf.Insert(tr))
				if i%2 == 1 {
					d = store.DeltaOf(rdf.Delete(tr))
				}
				if _, err := p.Apply(d); err != nil {
					t.Error(err)
					return
				}
			}
		}(pair)
	}
	wg.Wait()
	s := p.HVS().Stats()
	if s.Entries != 4 || s.Invalidations != 0 || s.DeltaFolded-folded != 4*50 {
		t.Fatalf("crossing writes on an object expansion's link evicted it or folded nothing: %+v", s)
	}
	eng := sparql.NewEngine(st)
	for _, q := range queries {
		e, cached := p.HVS().Entry(q)
		if !cached {
			continue // a property expansion, served by the memo
		}
		want, err := eng.Query(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if canon(e.Result) != canon(want) {
			t.Fatalf("cached %q\n%s\nengine\n%s", q, canon(e.Result), canon(want))
		}
	}
}

func mustLookup(t *testing.T, st *store.Store, term rdf.Term) rdf.ID {
	t.Helper()
	id, ok := st.Dict().Lookup(term)
	if !ok {
		t.Fatalf("%v not in the dictionary", term)
	}
	return id
}
