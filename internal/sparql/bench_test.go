package sparql

import (
	"context"
	"fmt"
	"testing"

	"elinda/internal/datagen"
	"elinda/internal/rdf"
	"elinda/internal/store"
)

const benchQuery = `SELECT ?p COUNT(?p) AS ?count SUM(?sp) AS ?sp
FROM {SELECT ?s ?p count(*) AS ?sp
FROM {?s a owl:Thing. ?s ?p ?o.}
GROUP BY ?s ?p} GROUP BY ?p`

func BenchmarkParsePaperQuery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Parse(benchQuery); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParseSimpleSelect(b *testing.B) {
	src := `SELECT ?s ?lbl WHERE { ?s a <http://x/C> . OPTIONAL { ?s rdfs:label ?lbl . } FILTER (BOUND(?lbl)) } ORDER BY ?s LIMIT 100`
	for i := 0; i < b.N; i++ {
		if _, err := Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

func benchEngine(n int) *Engine {
	st := store.New(n * 4)
	var ts []rdf.Triple
	for i := 0; i < n; i++ {
		inst := ex(fmt.Sprintf("i%d", i))
		ts = append(ts, rdf.Triple{S: inst, P: rdf.TypeIRI, O: rdf.OWLThingIRI})
		ts = append(ts, rdf.Triple{S: inst, P: ex(fmt.Sprintf("p%d", i%10)), O: ex(fmt.Sprintf("o%d", i%100))})
		ts = append(ts, rdf.Triple{S: inst, P: ex("name"), O: rdf.NewLiteral(fmt.Sprintf("inst %d", i))})
	}
	st.Load(ts)
	return NewEngine(st)
}

// BenchmarkExecuteBGPJoin measures the generic two-pattern join that
// underlies every expansion query.
func BenchmarkExecuteBGPJoin(b *testing.B) {
	e := benchEngine(2000)
	q, err := Parse(`SELECT ?s ?o WHERE { ?s a owl:Thing . ?s <http://example.org/p3> ?o . }`)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := e.Execute(context.Background(), q)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkExecutePaperQuery measures the full heavy expansion query on
// the generic path — the "Virtuoso" bar of Figure 4 in miniature.
func BenchmarkExecutePaperQuery(b *testing.B) {
	e := benchEngine(2000)
	q, err := Parse(benchQuery)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := e.Execute(context.Background(), q)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkExecuteGroupByAggregate(b *testing.B) {
	e := benchEngine(2000)
	q, err := Parse(`SELECT ?p (COUNT(DISTINCT ?s) AS ?n) WHERE { ?s ?p ?o . } GROUP BY ?p ORDER BY DESC(?n)`)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Execute(context.Background(), q); err != nil {
			b.Fatal(err)
		}
	}
}

// queryEngineWorkloads cover the shapes that matter for the ID-space
// executor: multi-pattern BGP joins, DISTINCT, OPTIONAL+FILTER, and the
// expansion-shaped aggregation query from the paper. (The elinda-bench
// query-engine experiment measures its own analogous workloads against
// the generated DBpedia-like dataset; this list drives the in-package
// allocation benchmarks.)
var queryEngineWorkloads = []struct {
	Name  string
	Query string
}{
	{"bgp-join2", `SELECT ?s ?o WHERE { ?s a owl:Thing . ?s <http://example.org/p3> ?o . }`},
	{"bgp-join3", `SELECT ?s ?o ?n WHERE { ?s a owl:Thing . ?s <http://example.org/p3> ?o . ?s <http://example.org/name> ?n . }`},
	{"distinct", `SELECT DISTINCT ?p ?o WHERE { ?s ?p ?o . }`},
	{"expansion", benchQuery},
	{"groupby-order", `SELECT ?p (COUNT(DISTINCT ?s) AS ?n) WHERE { ?s ?p ?o . } GROUP BY ?p ORDER BY DESC(?n)`},
	{"optional-filter", `SELECT ?s ?o WHERE { ?s a owl:Thing . OPTIONAL { ?s <http://example.org/p3> ?o . } FILTER (BOUND(?o)) }`},
}

// BenchmarkQueryEngine measures the ID-space streaming executor's time
// and allocations per query on the workloads above.
func BenchmarkQueryEngine(b *testing.B) {
	e := benchEngine(2000)
	for _, w := range queryEngineWorkloads {
		q, err := Parse(w.Query)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(w.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := e.Execute(context.Background(), q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOrderByLimit compares the full stable sort against the
// bounded-heap top-k selection on a LIMIT 10 over a large result — the
// shape the heap path exists for.
func BenchmarkOrderByLimit(b *testing.B) {
	rows := make([]Solution, 50_000)
	for i := range rows {
		rows[i] = Solution{"v": rdf.NewTypedLiteral(fmt.Sprint((i*2654435761)%1_000_003), rdf.XSDInteger)}
	}
	keys := []OrderKey{{Expr: &VarExpr{Name: "v"}, Desc: true}}
	b.Run("full-sort", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cp := append([]Solution(nil), rows...)
			sortRows(cp, keys)
			_ = cp[:10]
		}
	})
	b.Run("topk-10", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = OrderAndSlice(rows, &Query{OrderBy: keys, Limit: 10})
		}
	})
}

// BenchmarkOptionalJoin times the explorer's data-table query (a class
// pattern plus one OPTIONAL per column) over the DBpedia-like dataset at
// two sizes: the left joins dominate it.
func BenchmarkOptionalJoin(b *testing.B) {
	for _, persons := range []int{2000, 20000} {
		cfg := datagen.DefaultConfig()
		cfg.Persons = persons
		st, err := datagen.Generate(cfg).NewStore()
		if err != nil {
			b.Fatal(err)
		}
		e := NewEngine(st)
		q, err := Parse(tableQuery(datagen.Ont("Philosopher"), datagen.Ont("influencedBy"), datagen.Ont("mainInterest")))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("persons=%d", persons), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := e.Execute(context.Background(), q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
