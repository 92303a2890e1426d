package core

import (
	"context"
	"fmt"
	"testing"

	"elinda/internal/datagen"
	"elinda/internal/rdf"
	"elinda/internal/sparql"
	"elinda/internal/store"
)

// chartBenchStore generates the DBpedia-like dataset at the given size.
// With overlay it then applies one delta of inserts and rdf:type deletes
// plus a few single inserts, so the chart queries read a sorted delta, a
// tail and tombstones on top of the columnar base.
func chartBenchStore(b *testing.B, persons int, overlay bool) *store.Store {
	b.Helper()
	cfg := datagen.DefaultConfig()
	cfg.Persons = persons
	st, err := datagen.Generate(cfg).NewStore()
	if err != nil {
		b.Fatal(err)
	}
	if !overlay {
		return st
	}
	var d store.Delta
	k := persons / 10
	for i := 0; i < k; i++ {
		extra := datagen.Res(fmt.Sprintf("Extra_%d", i))
		d.Insert(
			rdf.Triple{S: extra, P: rdf.TypeIRI, O: datagen.Ont("Person")},
			rdf.Triple{S: extra, P: datagen.Ont("birthPlace"), O: datagen.Res(fmt.Sprintf("City_%d", i%50))},
		)
		if i%2 == 0 {
			d.Delete(rdf.Triple{S: datagen.Res(fmt.Sprintf("Politician_%d", i)), P: rdf.TypeIRI, O: datagen.Ont("Person")})
		}
		if i%10 == 0 {
			d.Delete(rdf.Triple{S: datagen.Res(fmt.Sprintf("City_%d", i/10)), P: rdf.TypeIRI, O: datagen.Ont("City")})
		}
	}
	if _, err := st.Apply(d); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := st.Add(rdf.Triple{S: datagen.Res(fmt.Sprintf("Tail_%d", i)), P: rdf.TypeIRI, O: datagen.Ont("Person")}); err != nil {
			b.Fatal(err)
		}
	}
	return st
}

// benchChartQuery times one chart query per iteration.
func benchChartQuery(b *testing.B, st *store.Store, src string) {
	q, err := sparql.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	e := sparql.NewEngine(st)
	b.ReportAllocs()
	for b.Loop() {
		res, err := e.Execute(context.Background(), q)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatal("empty chart")
		}
	}
}

// BenchmarkObjectExpansion times the paper's object chart — the classes
// of Persons' birth places, COUNT(DISTINCT ?o) per class — at two sizes,
// clean and over an overlay. few-probes is the semi-join's worst case:
// the class has 60 000 instances and two of them carry the property, so
// the class check runs twice against a 60 000-entry posting list.
func BenchmarkObjectExpansion(b *testing.B) {
	src := ObjectExpansionSPARQL(datagen.Ont("Person"), datagen.Ont("birthPlace"), false)
	for _, persons := range []int{2000, 20000} {
		for _, overlay := range []bool{false, true} {
			st := chartBenchStore(b, persons, overlay)
			b.Run(fmt.Sprintf("persons=%d/overlay=%v", persons, overlay), func(b *testing.B) {
				benchChartQuery(b, st, src)
			})
		}
	}
	st := store.New(1 << 17)
	var ts []rdf.Triple
	for i := 0; i < 60000; i++ {
		ts = append(ts, rdf.Triple{S: datagen.Res(fmt.Sprintf("I_%d", i)), P: rdf.TypeIRI, O: datagen.Ont("C")})
	}
	for i := 0; i < 2; i++ {
		o := datagen.Res(fmt.Sprintf("O_%d", i))
		ts = append(ts,
			rdf.Triple{S: datagen.Res(fmt.Sprintf("I_%d", i*1000)), P: datagen.Ont("p"), O: o},
			rdf.Triple{S: o, P: rdf.TypeIRI, O: datagen.Ont("D")})
	}
	if _, err := st.Load(ts); err != nil {
		b.Fatal(err)
	}
	b.Run("few-probes", func(b *testing.B) {
		benchChartQuery(b, st, ObjectExpansionSPARQL(datagen.Ont("C"), datagen.Ont("p"), false))
	})
}

// BenchmarkSubclassChart times the subclass chart of Person — per direct
// subclass, COUNT(DISTINCT ?s) of the Persons typed with it — at two
// sizes, clean and over an overlay.
func BenchmarkSubclassChart(b *testing.B) {
	src := SubclassChartSPARQL(datagen.Ont("Person"))
	for _, persons := range []int{2000, 20000} {
		for _, overlay := range []bool{false, true} {
			st := chartBenchStore(b, persons, overlay)
			b.Run(fmt.Sprintf("persons=%d/overlay=%v", persons, overlay), func(b *testing.B) {
				benchChartQuery(b, st, src)
			})
		}
	}
}

// BenchmarkPropertyChart times Pane.PropertyChart, outgoing and incoming,
// on the root (owl:Thing) and Person panes at two sizes, clean and over an
// overlay: the chart /api/chart?kind=property serves, which reads counts
// and builds no bar's member set.
func BenchmarkPropertyChart(b *testing.B) {
	for _, persons := range []int{2000, 20000} {
		for _, overlay := range []bool{false, true} {
			e := NewExplorer(chartBenchStore(b, persons, overlay))
			for _, pane := range []*Pane{e.OpenRootPane(), e.OpenPane(datagen.Ont("Person"))} {
				for _, incoming := range []bool{false, true} {
					name := fmt.Sprintf("persons=%d/overlay=%v/%s/incoming=%v", persons, overlay, pane.Title, incoming)
					b.Run(name, func(b *testing.B) {
						b.ReportAllocs()
						for b.Loop() {
							pane.PropertyChart(incoming, -1)
						}
					})
				}
			}
		}
	}
}
