package core

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"elinda/internal/datagen"
	"elinda/internal/decomposer"
	"elinda/internal/rdf"
	"elinda/internal/sparql"
)

// genExplorer builds an explorer over the synthetic DBpedia-like dataset
// (richer than the hand fixture: deep hierarchy, many properties).
func genExplorer(t *testing.T) *Explorer {
	t.Helper()
	ds := datagen.Generate(datagen.Config{Seed: 8, Persons: 400, PoliticianProps: 50, ErrorRate: 0.05})
	st, err := ds.NewStore()
	if err != nil {
		t.Fatal(err)
	}
	return NewExplorer(st)
}

// runCounts executes a generated chart query and returns label → count.
func runCounts(t *testing.T, e *Explorer, src, labelVar, countVar string) map[rdf.Term]int {
	t.Helper()
	res, err := sparql.NewEngine(e.Store()).Query(context.Background(), src)
	if err != nil {
		t.Fatalf("generated query failed: %v\n%s", err, src)
	}
	out := map[rdf.Term]int{}
	for _, row := range res.Rows {
		n, err := strconv.Atoi(row[countVar].Value)
		if err != nil {
			t.Fatalf("count value %q: %v", row[countVar].Value, err)
		}
		out[row[labelVar]] = n
	}
	return out
}

// TestSubclassChartSPARQLEquivalence: the generated subclass-chart query
// must produce exactly the chart the explorer computes directly.
func TestSubclassChartSPARQLEquivalence(t *testing.T) {
	e := genExplorer(t)
	for _, class := range []rdf.Term{rdf.OWLThingIRI, datagen.Ont("Agent"), datagen.Ont("Person")} {
		direct := e.subclassExpansion(e.ClassBar(class))
		got := runCounts(t, e, SubclassChartSPARQL(class), "c", "n")
		// The SPARQL counts only non-empty bars; compare against those.
		want := map[rdf.Term]int{}
		for _, b := range direct.Bars {
			if b.Count > 0 {
				want[b.Bar.Label] = b.Count
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d SPARQL bars vs %d direct bars", class.LocalName(), len(got), len(want))
		}
		for label, n := range want {
			if got[label] != n {
				t.Errorf("%s / %s: SPARQL %d, direct %d", class.LocalName(), label.LocalName(), got[label], n)
			}
		}
	}
}

// TestPropertyExpansionSPARQLEquivalence: the paper's Section 4 query
// must agree with the direct property expansion for both directions.
func TestPropertyExpansionSPARQLEquivalence(t *testing.T) {
	e := genExplorer(t)
	class := datagen.Ont("Philosopher")
	bar := e.ClassBar(class)
	for _, incoming := range []bool{false, true} {
		direct := e.propertyExpansion(bar, incoming)
		got := runCounts(t, e, PropertyExpansionSPARQL(class, incoming), "p", "count")
		if len(got) != len(direct.Bars) {
			t.Fatalf("incoming=%v: %d SPARQL properties vs %d direct", incoming, len(got), len(direct.Bars))
		}
		for _, b := range direct.Bars {
			if got[b.Bar.Label] != b.Count {
				t.Errorf("incoming=%v %s: SPARQL %d, direct %d",
					incoming, b.LabelText, got[b.Bar.Label], b.Count)
			}
		}
	}
}

// TestObjectExpansionSPARQLEquivalence: the generated connections query
// must agree with the ConnectionsChart.
func TestObjectExpansionSPARQLEquivalence(t *testing.T) {
	e := genExplorer(t)
	class := datagen.Ont("Philosopher")
	prop := datagen.Ont("influencedBy")
	pane := e.OpenPane(class)
	direct, err := pane.ConnectionsChart(prop, false)
	if err != nil {
		t.Fatal(err)
	}
	got := runCounts(t, e, ObjectExpansionSPARQL(class, prop, false), "t", "n")
	if len(got) != len(direct.Bars) {
		t.Fatalf("%d SPARQL classes vs %d direct bars", len(got), len(direct.Bars))
	}
	for _, b := range direct.Bars {
		if got[b.Bar.Label] != b.Count {
			t.Errorf("%s: SPARQL %d, direct %d", b.LabelText, got[b.Bar.Label], b.Count)
		}
	}
}

// TestObjectExpansionSPARQLIncoming covers the ingoing variant (works
// entering philosophers).
func TestObjectExpansionSPARQLIncoming(t *testing.T) {
	e := genExplorer(t)
	class := datagen.Ont("Philosopher")
	prop := datagen.Ont("author")
	pane := e.OpenPane(class)
	direct, err := pane.ConnectionsChart(prop, true)
	if err != nil {
		t.Fatal(err)
	}
	got := runCounts(t, e, ObjectExpansionSPARQL(class, prop, true), "t", "n")
	for _, b := range direct.Bars {
		if got[b.Bar.Label] != b.Count {
			t.Errorf("%s: SPARQL %d, direct %d", b.LabelText, got[b.Bar.Label], b.Count)
		}
	}
}

// TestDatasetStatsSPARQL: the "very first queries" return the same totals
// as ComputeStats.
func TestDatasetStatsSPARQL(t *testing.T) {
	e := genExplorer(t)
	stats := e.Store().ComputeStats()
	triplesQ, classesQ := DatasetStatsSPARQL()
	eng := sparql.NewEngine(e.Store())

	res, err := eng.Query(context.Background(), triplesQ)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0]["n"].Value; got != strconv.Itoa(stats.Triples) {
		t.Errorf("triples: SPARQL %s, stats %d", got, stats.Triples)
	}

	res, err = eng.Query(context.Background(), classesQ)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0]["n"].Value; got != strconv.Itoa(stats.DeclaredClasses) {
		t.Errorf("classes: SPARQL %s, stats %d", got, stats.DeclaredClasses)
	}
}

// TestPaperQueryDetectedByDecomposer: the query string core generates is
// exactly the shape the decomposer detects — the contract tying the
// explorer to the fast path.
func TestPaperQueryDetectedByDecomposer(t *testing.T) {
	e := genExplorer(t)
	for _, incoming := range []bool{false, true} {
		src := PropertyExpansionSPARQL(rdf.OWLThingIRI, incoming)
		q, err := sparql.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		res, ok := decomposer.New(e.Store()).TryExecute(q)
		if !ok {
			t.Fatalf("incoming=%v: generated query not detected:\n%s", incoming, src)
		}
		if len(res.Rows) == 0 {
			t.Errorf("incoming=%v: decomposed result empty", incoming)
		}
	}
}

// TestExplainObjectExpansionSemijoin: in the object chart's plan the
// class check on ?s runs as a semi-join step behind the property scan,
// and EXPLAIN names it.
func TestExplainObjectExpansionSemijoin(t *testing.T) {
	e := genExplorer(t)
	src := ObjectExpansionSPARQL(datagen.Ont("Person"), datagen.Ont("birthPlace"), false)
	rep, err := sparql.NewEngine(e.Store()).Explain(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, st := range rep.Steps {
		kinds = append(kinds, st.Kind)
	}
	if fmt.Sprint(kinds) != "[scan semijoin scan]" || rep.Steps[1].Var != "s" {
		t.Fatalf("plan:\n%s\nwant the birthPlace scan, a semi-join on ?s, then the type scan", rep)
	}
	if !strings.Contains(rep.String(), "semijoin ?s") {
		t.Errorf("rendered report:\n%s", rep)
	}
}

// TestExplainSubclassChartStartsAtSubclasses pins the subclass chart's
// join order: the few rdfs:subClassOf triples under the class come
// first, and each subclass reads only its own instances. Starting from
// every instance of the class instead (?s a Person) probes each one's
// types, which ran three to five times slower at 60 000 persons.
func TestExplainSubclassChartStartsAtSubclasses(t *testing.T) {
	e := genExplorer(t)
	person := datagen.Ont("Person")
	rep, err := sparql.NewEngine(e.Store()).Explain(context.Background(), SubclassChartSPARQL(person))
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("?c %s %s", rdf.SubClassOfIRI, person)
	if len(rep.Steps) == 0 || len(rep.Steps[0].Patterns) != 1 || rep.Steps[0].Patterns[0] != want {
		t.Fatalf("plan:\n%s\nwant %s first", rep, want)
	}
}
