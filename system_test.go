// Integration tests exercising the assembled system end to end: data
// generation → store → explorer → proxy → HTTP endpoint, plus the
// demonstration scenarios of Section 5.
package elinda_test

import (
	"bytes"
	"context"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"elinda"
	"elinda/internal/core"
	"elinda/internal/datagen"
	"elinda/internal/endpoint"
	"elinda/internal/proxy"
	"elinda/internal/rdf"
	"elinda/internal/sparql"
)

func testSystem(t *testing.T) *elinda.System {
	t.Helper()
	ds := elinda.GenerateDBpediaLike(elinda.DataConfig{
		Seed: 1, Persons: 1000, PoliticianProps: 60, ErrorRate: 0.03,
	})
	sys, err := elinda.Open(ds.Triples)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestOpenRejectsInvalidTriples(t *testing.T) {
	bad := []rdf.Triple{{S: rdf.NewLiteral("x"), P: rdf.TypeIRI, O: rdf.OWLThingIRI}}
	if _, err := elinda.Open(bad); err == nil {
		t.Error("invalid triples accepted")
	}
}

func TestOpenFromSerializedFormats(t *testing.T) {
	ds := elinda.GenerateDBpediaLike(elinda.DataConfig{Seed: 2, Persons: 100, PoliticianProps: 40})
	var nt bytes.Buffer
	if _, err := rdf.WriteNTriples(&nt, ds.Triples); err != nil {
		t.Fatal(err)
	}
	sysNT, err := elinda.OpenNTriples(&nt)
	if err != nil {
		t.Fatal(err)
	}
	if sysNT.Store.Len() != len(ds.Triples) {
		t.Errorf("NT round-trip: %d vs %d triples", sysNT.Store.Len(), len(ds.Triples))
	}

	var ttl bytes.Buffer
	if err := rdf.WriteTurtle(&ttl, ds.Triples); err != nil {
		t.Fatal(err)
	}
	sysTTL, err := elinda.OpenTurtle(&ttl)
	if err != nil {
		t.Fatal(err)
	}
	if sysTTL.Store.Len() != len(ds.Triples) {
		t.Errorf("TTL round-trip: %d vs %d triples", sysTTL.Store.Len(), len(ds.Triples))
	}
}

// TestScenarioUnderstandDataset covers the first demonstration kind:
// "examine the bar chart showing the first-level classes of the dataset"
// and "analyze the twenty most significant properties of the largest
// class in the dataset".
func TestScenarioUnderstandDataset(t *testing.T) {
	sys := testSystem(t)
	pane := sys.Explorer.OpenRootPane()
	chart := pane.SubclassChart()
	if len(chart.Bars) != 49 {
		t.Fatalf("first-level classes = %d", len(chart.Bars))
	}
	largest := chart.Bars[0]
	if largest.LabelText != "Agent" {
		t.Errorf("largest class = %s, want Agent", largest.LabelText)
	}
	sub := sys.Explorer.OpenPane(largest.Bar.Label)
	props := sub.PropertyChart(false, -1).Top(20)
	if len(props.Bars) != 20 {
		t.Fatalf("top-20 properties = %d", len(props.Bars))
	}
	for i := 1; i < len(props.Bars); i++ {
		if props.Bars[i].Count > props.Bars[i-1].Count {
			t.Fatal("significance order broken")
		}
	}
}

// TestScenarioInfluencePath covers "the types of people that influenced
// philosophers".
func TestScenarioInfluencePath(t *testing.T) {
	sys := testSystem(t)
	x := sys.Explorer.StartExploration()
	for _, c := range []string{"Agent", "Person", "Philosopher"} {
		if _, err := x.ExpandByText(c, core.SubclassExpansion); err != nil {
			t.Fatalf("expand %s: %v", c, err)
		}
	}
	if x.Breadcrumbs() != "Thing → Agent → Person → Philosopher" {
		t.Errorf("breadcrumbs = %q", x.Breadcrumbs())
	}
	pane := sys.Explorer.OpenPane(datagen.Ont("Philosopher"))
	conn, err := pane.ConnectionsChart(datagen.Ont("influencedBy"), false)
	if err != nil {
		t.Fatal(err)
	}
	sci, ok := conn.BarByText("Scientist")
	if !ok || sci.Count == 0 {
		t.Fatalf("Scientist bar: %+v ok=%v", sci, ok)
	}
}

// TestErrorDetectionScenario covers the third demonstration kind (T5).
func TestErrorDetectionScenario(t *testing.T) {
	sys := testSystem(t)
	pane := sys.Explorer.OpenPane(datagen.Ont("Person"))
	conn, err := pane.ConnectionsChart(datagen.Ont("birthPlace"), false)
	if err != nil {
		t.Fatal(err)
	}
	food, ok := conn.BarByText("Food")
	if !ok || food.Count == 0 {
		t.Fatal("erroneous Food birthplaces not detectable")
	}
	// The generated SPARQL pinpoints the bad resources.
	src := food.Bar.SPARQL()
	res, err := sys.Proxy.Query(context.Background(), src)
	if err != nil {
		t.Fatalf("bar SPARQL failed: %v\n%s", err, src)
	}
	if len(res.Rows) != food.Count {
		t.Errorf("SPARQL found %d, bar says %d", len(res.Rows), food.Count)
	}
}

// TestScenarioPerformanceToggles covers the second demonstration kind:
// heavy queries "with the discussed solutions turned on and off" — the
// engine alone, a proxy whose threshold no answer reaches (decomposer, no
// HVS entries) and a proxy caching every backend answer, over the shared
// store. The decomposer answers the property expansion; the HVS answers
// the repeat of an object expansion, since decomposer answers never enter
// it. Each gives the engine's rows, each from its own tier.
func TestScenarioPerformanceToggles(t *testing.T) {
	st := testSystem(t).Store
	prop := core.PropertyExpansionSPARQL(rdf.OWLThingIRI, false)
	obj := core.ObjectExpansionSPARQL(datagen.Ont("Person"), datagen.Ont("birthPlace"), false)
	decomposed := proxy.New(st, proxy.Options{HeavyThreshold: time.Hour})
	cached := proxy.New(st, proxy.Options{HeavyThreshold: time.Nanosecond})
	if _, err := cached.Query(context.Background(), obj); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		px    *proxy.Proxy
		q     string
		route proxy.Route
	}{{"decomposer", decomposed, prop, proxy.RouteDecomposer}, {"hvs", cached, obj, proxy.RouteHVS}} {
		slow, err := sparql.NewEngine(st).Query(context.Background(), c.q)
		if err != nil {
			t.Fatal(err)
		}
		res, trace, err := c.px.QueryTraced(context.Background(), c.q)
		if err != nil {
			t.Fatal(err)
		}
		if trace.Route != c.route {
			t.Errorf("%s: route = %v", c.name, trace.Route)
		}
		if sortedRows(res) != sortedRows(slow) {
			t.Errorf("%s changed the answer:\n%s\nengine:\n%s", c.name, sortedRows(res), sortedRows(slow))
		}
	}
	if decomposed.HVS().Len() != 0 {
		t.Error("the decomposer configuration cached an answer")
	}
}

// sortedRows renders a result as its variables and sorted rows, so
// answers from different tiers compare regardless of row order.
func sortedRows(res *sparql.Result) string {
	rows := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		cells := make([]string, len(res.Vars))
		for j, v := range res.Vars {
			cells[j] = row[v].String()
		}
		rows[i] = strings.Join(cells, "\t")
	}
	slices.Sort(rows)
	return strings.Join(res.Vars, "\t") + "\n" + strings.Join(rows, "\n")
}

// TestFullStackOverHTTP drives the whole Figure 3 pipeline through a real
// HTTP server and compares with direct execution.
func TestFullStackOverHTTP(t *testing.T) {
	sys := testSystem(t)
	srv := httptest.NewServer(sys.Endpoint())
	defer srv.Close()
	client := endpoint.NewClient(srv.URL)

	q := core.PropertyExpansionSPARQL(datagen.Ont("Philosopher"), false)
	remote, err := client.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := sys.Proxy.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(remote.Rows) != len(direct.Rows) {
		t.Errorf("HTTP vs direct rows: %d vs %d", len(remote.Rows), len(direct.Rows))
	}
}

func TestWarmPrecomputesRootAggregates(t *testing.T) {
	sys := testSystem(t)
	sys.Warm()
	q := core.PropertyExpansionSPARQL(rdf.OWLThingIRI, false)
	start := time.Now()
	_, trace, err := sys.Proxy.QueryTraced(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if trace.Route != proxy.RouteDecomposer {
		t.Errorf("route after warm = %v", trace.Route)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("warmed query took %v", elapsed)
	}
}

func TestRenderHelpers(t *testing.T) {
	sys := testSystem(t)
	chart := sys.Explorer.OpenRootPane().SubclassChart()
	if out := elinda.RenderChart(chart); !strings.Contains(out, "Agent") {
		t.Error("RenderChart missing Agent")
	}
	pchart := sys.Explorer.OpenPane(datagen.Ont("Philosopher")).PropertyChart(false, 0)
	if out := elinda.RenderChartCoverage(pchart); !strings.Contains(out, "%") {
		t.Error("RenderChartCoverage missing percentages")
	}
}
