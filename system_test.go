// Integration tests exercising the assembled system end to end: data
// generation → store → explorer → proxy → HTTP endpoint, plus the
// demonstration scenarios of Section 5.
package elinda_test

import (
	"bytes"
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"elinda"
	"elinda/internal/core"
	"elinda/internal/datagen"
	"elinda/internal/endpoint"
	"elinda/internal/proxy"
	"elinda/internal/rdf"
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
// heavy queries "with the discussed solutions turned on and off" — one
// system per configuration over the shared store, as the server builds it.
func TestScenarioPerformanceToggles(t *testing.T) {
	st := testSystem(t).Store
	q := core.PropertyExpansionSPARQL(rdf.OWLThingIRI, false)

	generic := elinda.NewSystemFromStore(st, proxy.Options{DisableHVS: true, DisableDecomposer: true})
	slow, err := generic.Proxy.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	decomposed := elinda.NewSystemFromStore(st, proxy.Options{DisableHVS: true})
	fast, err := decomposed.Proxy.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(slow.Rows) != len(fast.Rows) {
		t.Fatalf("toggling the decomposer changed results: %d vs %d rows", len(slow.Rows), len(fast.Rows))
	}
	cached := elinda.NewSystemFromStore(st, proxy.Options{HeavyThreshold: time.Nanosecond})
	if _, err := cached.Proxy.Query(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	_, trace, err := cached.Proxy.QueryTraced(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if trace.Route != proxy.RouteHVS {
		t.Errorf("warm repeat route = %v, want hvs", trace.Route)
	}
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
