package sparql

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"elinda/internal/rdf"
	"elinda/internal/store"
)

// TestBGPLargeStarMatchesOracle: a three-pattern subject star over 2000
// subjects returns every row the oracle does.
func TestBGPLargeStarMatchesOracle(t *testing.T) {
	st := store.New(8192)
	var ts []rdf.Triple
	for i := 0; i < 2000; i++ {
		inst := ex(fmt.Sprintf("i%d", i))
		ts = append(ts, rdf.Triple{S: inst, P: rdf.TypeIRI, O: rdf.OWLThingIRI})
		ts = append(ts, rdf.Triple{S: inst, P: ex("p"), O: ex(fmt.Sprintf("o%d", i%37))})
		ts = append(ts, rdf.Triple{S: inst, P: ex("q"), O: ex(fmt.Sprintf("v%d", i%11))})
	}
	if _, err := st.Load(ts); err != nil {
		t.Fatal(err)
	}
	src := `SELECT ?s ?o ?v WHERE { ?s a owl:Thing . ?s <http://example.org/p> ?o . ?s <http://example.org/q> ?v . }`
	got, err := NewEngine(st).Query(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	want, err := newOracle(st).Query(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 2000 || !sameSolutions(got.Rows, want.Rows) {
		t.Fatalf("engine returned %d rows, oracle %d, want 2000 equal rows", len(got.Rows), len(want.Rows))
	}
}

// TestSnapshotPathMatchesLiveStorePath is the snapshot/live differential
// of the issue: a store whose recent writes sit in the sorted delta
// overlay (individual Adds, not yet compacted) must answer every random
// query identically to a store bulk-built to the same contents whose
// snapshot is fully columnar. Reuses the PR 2 random query generator.
func TestSnapshotPathMatchesLiveStorePath(t *testing.T) {
	r := rand.New(rand.NewSource(307))
	ctx := context.Background()
	for trial := 0; trial < 200; trial++ {
		delta, triples := genDiffStore(r) // built via Add: delta overlay populated
		bulk := store.New(len(triples))
		if _, err := bulk.Load(triples); err != nil { // sort-once columnar build
			t.Fatal(err)
		}
		eDelta := NewEngine(delta)
		eBulk := NewEngine(bulk)
		q := genDiffQuery(r)

		resD, errD := eDelta.Execute(ctx, q)
		resB, errB := eBulk.Execute(ctx, q)
		if (errD == nil) != (errB == nil) {
			t.Fatalf("trial %d: error mismatch: delta=%v bulk=%v\nquery:\n%s", trial, errD, errB, q)
		}
		if errD != nil {
			continue
		}
		if q.Ask {
			if resD.AskTrue != resB.AskTrue {
				t.Fatalf("trial %d: ASK mismatch\nquery:\n%s", trial, q)
			}
			continue
		}
		if !sameSolutions(resD.Rows, resB.Rows) {
			t.Fatalf("trial %d: delta-overlay and bulk-built stores diverge (%d vs %d rows)\nquery:\n%s",
				trial, len(resD.Rows), len(resB.Rows), q)
		}
	}
}

// TestQueriesConcurrentWithWrites runs snapshot-bound queries while the
// store absorbs Adds and Loads; under -race (make check) this is the
// engine-level snapshot race test. Every query must see a consistent KB:
// the two patterns always join on the same frozen view, so the result
// size equals the snapshot's class cardinality even mid-load.
func TestQueriesConcurrentWithWrites(t *testing.T) {
	st := store.New(4096)
	seed := make([]rdf.Triple, 0, 200)
	for i := 0; i < 100; i++ {
		inst := ex(fmt.Sprintf("seed%d", i))
		seed = append(seed,
			rdf.Triple{S: inst, P: rdf.TypeIRI, O: ex("C")},
			rdf.Triple{S: inst, P: ex("p"), O: ex(fmt.Sprintf("v%d", i))})
	}
	if _, err := st.Load(seed); err != nil {
		t.Fatal(err)
	}
	src := `SELECT ?s ?v WHERE { ?s a <http://example.org/C> . ?s <http://example.org/p> ?v . }`
	e := NewEngine(st)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := st.Snapshot()
				res, err := e.Query(context.Background(), src)
				if err != nil {
					t.Errorf("query failed mid-write: %v", err)
					return
				}
				// The engine's snapshot is at least as new as ours; both
				// stay internally consistent, so the row count can only
				// grow and never exceeds the live class size.
				min := len(snap.SubjectsOfType(mustID(t, snap.Dict(), ex("C"))))
				if len(res.Rows) < min {
					t.Errorf("query saw %d rows, below its snapshot floor %d", len(res.Rows), min)
					return
				}
			}
		}()
	}
	for i := 0; i < 400; i++ {
		inst := ex(fmt.Sprintf("w%d", i))
		if i%20 == 0 {
			st.Load([]rdf.Triple{
				{S: inst, P: rdf.TypeIRI, O: ex("C")},
				{S: inst, P: ex("p"), O: ex(fmt.Sprintf("bulk%d", i))},
			})
		} else {
			// p before type: views are totally ordered, so any snapshot
			// holding the type triple also holds the p triple and the
			// row-count floor below stays valid.
			st.Add(rdf.Triple{S: inst, P: ex("p"), O: ex(fmt.Sprintf("live%d", i))})
			st.Add(rdf.Triple{S: inst, P: rdf.TypeIRI, O: ex("C")})
		}
	}
	close(stop)
	wg.Wait()
}

func mustID(t *testing.T, d *rdf.Dict, term rdf.Term) rdf.ID {
	t.Helper()
	id, ok := d.Lookup(term)
	if !ok {
		t.Fatalf("term %v not interned", term)
	}
	return id
}
