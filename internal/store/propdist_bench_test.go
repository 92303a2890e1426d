package store_test

import (
	"fmt"
	"math/rand"
	"testing"

	"elinda/internal/datagen"
	"elinda/internal/rdf"
	"elinda/internal/store"
)

// BenchmarkPropertyDistribution times the property-distribution kernel,
// PropertyCounts — the store layer under the explorer's property chart
// and the decomposer's cold pass — at two generator sizes, on the root (owl:Thing)
// and Person panes, in both directions, on a clean base and after 20 000
// single-predicate inserts between random persons (the shape of
// mixed_rw's replayed overlay; at the small size part of it folds into
// the base, as it would in the server).
func BenchmarkPropertyDistribution(b *testing.B) {
	for _, persons := range []int{2000, 20000} {
		cfg := datagen.DefaultConfig()
		cfg.Persons = persons
		st, err := datagen.Generate(cfg).NewStore()
		if err != nil {
			b.Fatal(err)
		}
		for _, state := range []string{"clean", "overlay20k"} {
			if state == "overlay20k" {
				addOverlay(b, st, 20000)
			}
			snap := st.Snapshot()
			for _, pane := range []rdf.Term{rdf.OWLThingIRI, datagen.Ont("Person")} {
				id, ok := snap.Dict().Lookup(pane)
				if !ok {
					b.Fatalf("%v not interned", pane)
				}
				set := snap.SubjectsOfType(id)
				for _, incoming := range []bool{false, true} {
					dir := "out"
					if incoming {
						dir = "in"
					}
					name := fmt.Sprintf("persons=%d/%s/%s/%s", persons, state, pane.LocalName(), dir)
					b.Run(name, func(b *testing.B) {
						for b.Loop() {
							snap.PropertyCounts(set, incoming)
						}
					})
				}
			}
		}
	}
}

// addOverlay inserts n "cites" links between random persons, 64 per
// delta.
func addOverlay(b *testing.B, st *store.Store, n int) {
	b.Helper()
	snap := st.Snapshot()
	pid, _ := snap.Dict().Lookup(datagen.Ont("Person"))
	persons := snap.SubjectsOfType(pid)
	r := rand.New(rand.NewSource(1))
	cites := datagen.Ont("cites")
	var d store.Delta
	for i := 0; i < n; i++ {
		s, o := persons[r.Intn(len(persons))], persons[r.Intn(len(persons))]
		d.Insert(rdf.Triple{S: snap.Dict().Term(s), P: cites, O: snap.Dict().Term(o)})
		if d.Len() == 64 || i == n-1 {
			if _, err := st.Apply(d); err != nil {
				b.Fatal(err)
			}
			d = store.Delta{}
		}
	}
}
