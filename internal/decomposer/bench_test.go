package decomposer

import (
	"context"
	"fmt"
	"testing"

	"elinda/internal/datagen"
	"elinda/internal/rdf"
	"elinda/internal/sparql"
	"elinda/internal/store"
)

func benchStore(nInst int) *store.Store {
	st := store.New(nInst * 6)
	var ts []rdf.Triple
	for i := 0; i < nInst; i++ {
		inst := ex(fmt.Sprintf("i%d", i))
		ts = append(ts, rdf.Triple{S: inst, P: rdf.TypeIRI, O: ex("C")})
		for j := 0; j <= i%5; j++ {
			ts = append(ts, rdf.Triple{
				S: inst,
				P: ex(fmt.Sprintf("p%d", j)),
				O: ex(fmt.Sprintf("o%d", (i+j)%500)),
			})
		}
	}
	st.Load(ts)
	return st
}

func BenchmarkDetect(b *testing.B) {
	q, err := sparql.Parse(paperOutgoing)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := Detect(q); !ok {
			b.Fatal("not detected")
		}
	}
}

// BenchmarkPropertyStatsCold measures the index computation itself (the
// decomposer's "SQL decomposition" work).
func BenchmarkPropertyStatsCold(b *testing.B) {
	st := benchStore(5000)
	class, _ := st.Dict().Lookup(ex("C"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := New(st) // fresh memo: cold every iteration
		if stats := d.PropertyStats(class, Outgoing); len(stats) == 0 {
			b.Fatal("no stats")
		}
	}
}

// BenchmarkPropertyStatsWarm measures a memo hit.
func BenchmarkPropertyStatsWarm(b *testing.B) {
	st := benchStore(5000)
	class, _ := st.Dict().Lookup(ex("C"))
	d := New(st)
	d.PropertyStats(class, Outgoing)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if stats := d.PropertyStats(class, Outgoing); len(stats) == 0 {
			b.Fatal("no stats")
		}
	}
}

// BenchmarkDecomposerApplyDelta prices one single-triple write for the six
// hot property expansions of the DBpedia-like data (the property half of
// the benchmark's hot set): "maintained" folds the write into the warm
// memo, "cold" rebuilds the six entries with the PropertyCounts kernel,
// which is what every write cost before the memo was maintained. Both
// include the store apply; the writes alternately insert and delete
// Philosopher→Scientist influencedBy links, like the benchmark's writes.
func BenchmarkDecomposerApplyDelta(b *testing.B) {
	hot := []struct {
		class rdf.Term
		dir   Direction
	}{
		{rdf.OWLThingIRI, Outgoing},
		{datagen.Ont("Agent"), Outgoing},
		{datagen.Ont("Person"), Outgoing},
		{datagen.Ont("Politician"), Outgoing},
		{datagen.Ont("Person"), Incoming},
		{datagen.Ont("Philosopher"), Incoming},
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
				P: datagen.Ont("influencedBy"),
				O: datagen.Res(fmt.Sprintf("Scientist_%d", (7*i)%ds.Facts.Scientists)),
			}
			if !st.Snapshot().ContainsTriple(tr) {
				pool = append(pool, tr)
			}
		}
		write := func(i int, carry ...store.Carry) {
			op := rdf.Insert(pool[i%len(pool)])
			if (i/len(pool))%2 == 1 {
				op = rdf.Delete(pool[i%len(pool)])
			}
			if _, err := st.Apply(store.DeltaOf(op), carry...); err != nil {
				b.Fatal(err)
			}
		}
		warm := func(d *Decomposer) {
			for _, h := range hot {
				id, _ := st.Dict().Lookup(h.class)
				d.PropertyStats(id, h.dir)
			}
		}
		b.Run(fmt.Sprintf("persons=%d/maintained", persons), func(b *testing.B) {
			d := New(st)
			warm(d)
			for i := 0; i < b.N; i++ {
				write(i, d.ApplyDelta)
			}
		})
		b.Run(fmt.Sprintf("persons=%d/cold", persons), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				write(i)
				warm(New(st))
			}
		})
	}
}

// BenchmarkDecomposedVsGeneric contrasts the two execution paths on the
// same query (the per-query view of Figure 4's gap).
func BenchmarkDecomposedVsGeneric(b *testing.B) {
	st := benchStore(2000)
	q, err := sparql.Parse(`SELECT ?p COUNT(?p) AS ?count SUM(?sp) AS ?sp
FROM {SELECT ?s ?p count(*) AS ?sp
FROM {?s a <http://example.org/C>. ?s ?p ?o.}
GROUP BY ?s ?p} GROUP BY ?p`)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("decomposed", func(b *testing.B) {
		d := New(st)
		for i := 0; i < b.N; i++ {
			if _, ok := d.TryExecute(q); !ok {
				b.Fatal("not decomposed")
			}
		}
	})
	b.Run("generic", func(b *testing.B) {
		e := sparql.NewEngine(st)
		for i := 0; i < b.N; i++ {
			if _, err := e.Execute(context.Background(), q); err != nil {
				b.Fatal(err)
			}
		}
	})
}
