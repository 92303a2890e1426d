package proxy

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"elinda/internal/core"
	"elinda/internal/datagen"
	"elinda/internal/endpoint"
	"elinda/internal/rdf"
	"elinda/internal/sparql"
	"elinda/internal/store"
)

// linkDelta is one to three random links, each inserted when absent and
// deleted when present: a write both cache tiers can fold.
func linkDelta(r *rand.Rand, st *store.Store) store.Delta {
	var d store.Delta
	for k := 1 + r.Intn(3); k > 0; k-- {
		if tr := randomLink(r); st.Snapshot().ContainsTriple(tr) {
			d.Delete(tr)
		} else {
			d.Insert(tr)
		}
	}
	return d
}

// TestReadsBesideWritesKeepCaches: readers of the hot chart queries run
// beside a writer of link deltas through Apply. Every write can be folded
// by both tiers and is carried into them before it is published, so no
// read may cost a tier its contents: no memo drop, no HVS invalidation,
// no kernel pass thrown away. Every answer must equal the engine's at a
// generation between the read's arrival and its response.
func TestReadsBesideWritesKeepCaches(t *testing.T) {
	const readers, writes = 4, 200
	st, _, queries := chartStore(t, 13)
	p := New(st, Options{HeavyThreshold: time.Nanosecond})
	eng := sparql.NewEngine(st)
	for _, q := range queries { // the HVS keeps the object expansions, the memo the rest
		if _, err := p.Query(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}

	type answer struct {
		query         int
		before, after uint64
		canon         string
	}
	var (
		mu      sync.Mutex
		answers []answer
		// oracle holds the engine's answers at each generation; the writer
		// is alone, so the store stays at a write's generation until the next.
		oracle = map[uint64][]string{st.Generation(): engineAnswers(t, eng, queries)}
		wg     sync.WaitGroup
	)
	done := make(chan struct{})
	for k := 0; k < readers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(300 + k)))
			for {
				select {
				case <-done:
					return
				default:
				}
				q := r.Intn(len(queries))
				before := st.Generation()
				res, err := p.Query(context.Background(), queries[q])
				after := st.Generation()
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				answers = append(answers, answer{q, before, after, canon(res)})
				mu.Unlock()
			}
		}(k)
	}
	r := rand.New(rand.NewSource(13))
	for i := 0; i < writes; i++ {
		res, err := p.Apply(linkDelta(r, st))
		if err != nil {
			t.Fatal(err)
		}
		if res.Changed() {
			want := engineAnswers(t, eng, queries)
			mu.Lock()
			oracle[res.To] = want
			mu.Unlock()
		}
	}
	close(done)
	wg.Wait()
	if t.Failed() {
		return
	}

	for _, a := range answers {
		ok := false
		for g := a.before; g <= a.after && !ok; g++ {
			ok = oracle[g] != nil && oracle[g][a.query] == a.canon
		}
		if !ok {
			t.Fatalf("answer to query %d read in generations [%d, %d] matches no generation in that range:\n%s", a.query, a.before, a.after, a.canon)
		}
	}
	m := p.MetricsSnapshot()
	if d := m.Decomposer; d.DropsNewerRead+d.DropsUnfoldable+d.DropsMissedWrite != 0 || d.PassesDiscarded != 0 {
		t.Fatalf("reads beside writes cost the memo: %+v", d)
	}
	if m.Cache.Invalidations != 0 {
		t.Fatalf("reads beside writes cleared the HVS: %+v", m.Cache)
	}
	t.Logf("%d answers beside %d writes; routes %v; memo %+v", len(answers), writes, m.Counts, m.Decomposer)
}

// BenchmarkReadsBesideWrites times one round of the benchmark's mixed
// workload in process on a datagen store at two sizes: a write through
// Apply (alternately inserting and deleting a Philosopher influencedBy
// Scientist or a Scientist birthPlace City link) running beside the eight
// hot chart reads through QueryBody. passes/op is the decomposer's kernel
// passes per round after the warm-up (stored or discarded): 0 when every
// write is carried into the memo before a read can see it.
func BenchmarkReadsBesideWrites(b *testing.B) {
	ont, person := datagen.Ont, datagen.Ont("Person")
	hot := []string{
		core.PropertyExpansionSPARQL(rdf.OWLThingIRI, false),
		core.PropertyExpansionSPARQL(ont("Agent"), false),
		core.PropertyExpansionSPARQL(person, false),
		core.PropertyExpansionSPARQL(ont("Politician"), false),
		core.PropertyExpansionSPARQL(person, true),
		core.PropertyExpansionSPARQL(ont("Philosopher"), true),
		core.ObjectExpansionSPARQL(person, ont("birthPlace"), false),
		core.ObjectExpansionSPARQL(person, ont("deathPlace"), false),
	}
	for _, persons := range []int{2000, 20000} {
		cfg := datagen.DefaultConfig()
		cfg.Persons = persons
		ds := datagen.Generate(cfg)
		st, err := ds.NewStore()
		if err != nil {
			b.Fatal(err)
		}
		var pool []rdf.Triple
		for i := 0; len(pool) < 64; i++ {
			tr := rdf.Triple{
				S: datagen.Res(fmt.Sprintf("Philosopher_%d", i%ds.Facts.Philosophers)),
				P: ont("influencedBy"),
				O: datagen.Res(fmt.Sprintf("Scientist_%d", (7*i)%ds.Facts.Scientists)),
			}
			if i%2 == 1 {
				tr = rdf.Triple{S: datagen.Res(fmt.Sprintf("Scientist_%d", i%ds.Facts.Scientists)), P: ont("birthPlace"), O: datagen.Res(fmt.Sprintf("City_%d", i%50))}
			}
			if _, known := st.Dict().Lookup(tr.O); known && !st.Snapshot().ContainsTriple(tr) && !slices.Contains(pool, tr) {
				pool = append(pool, tr)
			}
		}
		b.Run(fmt.Sprintf("persons=%d", persons), func(b *testing.B) {
			p := New(st, Options{HeavyThreshold: time.Nanosecond})
			ctx := context.Background()
			read := func() {
				for _, q := range hot {
					if _, _, err := p.QueryBody(ctx, q, endpoint.ContentType); err != nil {
						b.Fatal(err)
					}
				}
			}
			read() // warms both tiers
			passes := func() int {
				s := p.Decomposer().Stats()
				return s.PassesStored + s.PassesDiscarded
			}
			warm, i := passes(), 0
			b.ReportAllocs()
			for b.Loop() {
				op := rdf.Insert(pool[i%len(pool)])
				if (i/len(pool))%2 == 1 {
					op = rdf.Delete(pool[i%len(pool)])
				}
				i++
				wrote := make(chan error, 1)
				go func() {
					_, err := p.Apply(store.DeltaOf(op))
					wrote <- err
				}()
				read()
				if err := <-wrote; err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(passes()-warm)/float64(b.N), "passes/op")
		})
	}
}
