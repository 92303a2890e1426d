package sparql_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"elinda/internal/core"
	"elinda/internal/datagen"
	"elinda/internal/decomposer"
	"elinda/internal/rdf"
	"elinda/internal/sparql"
)

// FuzzParseQuery: Parse never panics; a query that parses prints (String)
// to text that parses again and prints the same, so print → parse is a
// fixed point; and neither decomposer detector panics on it. Its seeds in
// testdata/fuzz/FuzzParseQuery are the explorer's generated queries
// (TestParseQueryCorpusCurrent keeps them current), hand-written shapes
// the explorer never emits, and regression_* inputs the fuzzer found.
func FuzzParseQuery(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		q, err := sparql.Parse(src)
		if err != nil {
			return
		}
		decomposer.Detect(q)
		decomposer.DetectObject(q)
		printed := q.String()
		again, err := sparql.Parse(printed)
		if err != nil {
			t.Fatalf("printed query does not parse: %v\n%s", err, printed)
		}
		if reprinted := again.String(); reprinted != printed {
			t.Fatalf("print → parse is not a fixed point:\n%s\nthen\n%s", printed, reprinted)
		}
	})
}

// explorerQueries are the SPARQL texts the explorer generates for one
// session over a small DBpedia-like store: the property, subclass and
// object chart queries, the bar sets of each chart kind, a filtered bar
// and the data tables with and without filters.
func explorerQueries(t *testing.T) map[string]string {
	cfg := datagen.DefaultConfig()
	cfg.Persons, cfg.PoliticianProps = 40, 4
	st, err := datagen.Generate(cfg).NewStore()
	if err != nil {
		t.Fatal(err)
	}
	expl := core.NewExplorer(st)
	person, birthPlace := datagen.Ont("Person"), datagen.Ont("birthPlace")
	out := map[string]string{
		"property_out":   core.PropertyExpansionSPARQL(person, false),
		"property_in":    core.PropertyExpansionSPARQL(person, true),
		"subclass_chart": core.SubclassChartSPARQL(person),
		"object_out":     core.ObjectExpansionSPARQL(person, birthPlace, false),
		"object_in":      core.ObjectExpansionSPARQL(person, birthPlace, true),
		"root_bar":       expl.RootBar().SPARQL(),
		"class_bar":      expl.ClassBar(person).SPARQL(),
		"filtered_bar":   expl.OpenPane(person).FilterExpansion([]core.TableFilter{{Property: birthPlace, Equals: datagen.Res("City_0")}}).SPARQL(),
		"table":          expl.OpenPane(person).DataTable([]rdf.Term{birthPlace, rdf.LabelIRI}, nil).Query,
		"table_equals":   expl.OpenPane(person).DataTable([]rdf.Term{birthPlace}, []core.TableFilter{{Property: birthPlace, Equals: datagen.Res("City_0")}}).Query,
		"table_contains": expl.OpenPane(person).DataTable([]rdf.Term{birthPlace}, []core.TableFilter{{Property: rdf.LabelIRI, Contains: `a "quoted" \ name`}}).Query,
	}
	out["stats_triples"], out["stats_classes"] = core.DatasetStatsSPARQL()
	first := func(b *core.Bar, k core.ExpansionKind) *core.Chart {
		chart, err := expl.Expand(b, k)
		if err != nil || len(chart.Bars) == 0 {
			t.Fatalf("%s of %v: no bars (%v)", k, b.Label, err)
		}
		out[fmt.Sprintf("%s_bar", k)] = chart.Bars[0].Bar.SPARQL()
		return chart
	}
	first(expl.ClassBar(person), core.SubclassExpansion)
	first(first(expl.ClassBar(person), core.IncomingPropertyExpansion).Bars[0].Bar, core.IncomingObjectExpansion)
	for _, b := range first(expl.ClassBar(person), core.PropertyExpansion).Bars {
		if b.Bar.Label == birthPlace {
			first(b.Bar, core.ObjectExpansion)
		}
	}
	return out
}

// handWritten covers grammar the explorer does not generate.
var handWritten = map[string]string{
	"ask":        `ASK { <http://x/s> <http://x/p> "o"@en . }`,
	"prefixes":   "PREFIX ex: <http://x/>\nSELECT * WHERE { ?s ex:p ?o ; ex:q 3 , 4.5 . } LIMIT 10 OFFSET 2",
	"union":      `SELECT ?s WHERE { { ?s a <http://x/A> . } UNION { ?s a <http://x/B> . } }`,
	"values":     `SELECT ?s ?v WHERE { ?s <http://x/p> ?v . VALUES (?s ?v) { (<http://x/a> UNDEF) (<http://x/b> "1"^^<http://www.w3.org/2001/XMLSchema#integer>) } }`,
	"having":     `SELECT ?t (COUNT(DISTINCT ?o) AS ?n) WHERE { ?s a <http://x/C> . ?s <http://x/p> ?o . ?o a ?t . } GROUP BY ?t HAVING (COUNT(DISTINCT ?o) > 1) ORDER BY DESC(?n) ?t`,
	"expression": `SELECT DISTINCT ?s (STRLEN(STR(?o)) * 2 AS ?k) WHERE { ?s ?p ?o . OPTIONAL { ?o <http://x/q> ?z . } FILTER (REGEX(?o, "^a.*\\n", "i") && !BOUND(?z) || ?o >= -1.5) }`,
	"subselect":  `SELECT ?s WHERE { { SELECT ?s (COUNT(*) AS ?c) WHERE { ?s ?p ?o . } GROUP BY ?s } FILTER (?c > 2) }`,
}

// TestParseQueryCorpusCurrent keeps the committed seeds of FuzzParseQuery
// in step with the explorer's generators. PARSE_WRITE_FUZZ_CORPUS=1
// regenerates them.
func TestParseQueryCorpusCurrent(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzParseQuery")
	seeds := explorerQueries(t)
	for name, src := range handWritten {
		seeds[name] = src
	}
	if os.Getenv("PARSE_WRITE_FUZZ_CORPUS") == "1" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for name, src := range seeds {
		if _, err := sparql.Parse(src); err != nil {
			t.Errorf("seed %s does not parse: %v\n%s", name, err, src)
		}
		body := []byte(fmt.Sprintf("go test fuzz v1\nstring(%s)\n", strconv.Quote(src)))
		path := filepath.Join(dir, "seed_"+name)
		if os.Getenv("PARSE_WRITE_FUZZ_CORPUS") == "1" {
			if err := os.WriteFile(path, body, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, body) {
			t.Errorf("committed fuzz seed %s is missing or stale (regenerate with PARSE_WRITE_FUZZ_CORPUS=1): %v", name, err)
		}
	}
}

// FuzzParseUpdate: ParseUpdate never panics, and an accepted update's
// ground data round-trips: each INSERT DATA / DELETE DATA block, its
// triples re-rendered as N-Triples under the same verb, parses back to
// the same operation with the same triples in the same order. Its seeds in
// testdata/fuzz/FuzzParseUpdate are single-triple updates of the
// benchmark's shape, multi-operation requests, DELETE WHERE, the blank
// nodes DELETE DATA rejects, and malformed inputs.
func FuzzParseUpdate(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		u, err := sparql.ParseUpdate(src)
		if err != nil {
			return
		}
		for _, op := range u.Ops {
			if op.Kind == sparql.DeleteWhere {
				continue
			}
			var b strings.Builder
			b.WriteString(op.Kind.String() + " {\n")
			for _, tr := range op.Data {
				b.WriteString(tr.String() + "\n")
			}
			b.WriteString("}")
			again, err := sparql.ParseUpdate(b.String())
			if err != nil {
				t.Fatalf("re-rendered %s does not parse: %v\n%s", op.Kind, err, b.String())
			}
			if len(again.Ops) != 1 || again.Ops[0].Kind != op.Kind || !slices.Equal(again.Ops[0].Data, op.Data) {
				t.Fatalf("%s does not round-trip:\n%v\nthen\n%+v", op.Kind, op.Data, again.Ops)
			}
		}
	})
}
