package elinda_test

import (
	"context"
	"fmt"
	"time"

	"elinda"
	"elinda/internal/core"
	"elinda/internal/datagen"
	"elinda/internal/proxy"
	"elinda/internal/rdf"
)

// ExampleOpen shows the minimal path from triples to a chart.
func ExampleOpen() {
	triples, _ := rdf.ParseNTriples(`
<http://x/Person> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://www.w3.org/2002/07/owl#Class> .
<http://x/Person> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <http://www.w3.org/2002/07/owl#Thing> .
<http://x/alice> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://x/Person> .
<http://x/alice> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://www.w3.org/2002/07/owl#Thing> .
<http://x/bob> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://x/Person> .
<http://x/bob> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://www.w3.org/2002/07/owl#Thing> .
`)
	sys, err := elinda.Open(triples)
	if err != nil {
		fmt.Println(err)
		return
	}
	chart := sys.Explorer.OpenRootPane().SubclassChart()
	for _, b := range chart.Bars {
		fmt.Printf("%s: %d\n", b.LabelText, b.Count)
	}
	// Output:
	// Person: 2
}

// ExampleExploration walks the paper's drill-down path and prints the
// breadcrumb trail.
func ExampleExploration() {
	ds := elinda.GenerateDBpediaLike(elinda.DataConfig{Seed: 1, Persons: 200, PoliticianProps: 40})
	sys, err := elinda.Open(ds.Triples)
	if err != nil {
		fmt.Println(err)
		return
	}
	x := sys.Explorer.StartExploration()
	x.ExpandByText("Agent", core.SubclassExpansion)
	x.ExpandByText("Person", core.SubclassExpansion)
	x.ExpandByText("Philosopher", core.SubclassExpansion)
	fmt.Println(x.Breadcrumbs())
	// Output:
	// Thing → Agent → Person → Philosopher
}

// ExampleSystem_Proxy runs the paper's heavy query and an object
// expansion through the proxy twice each and reports the route of each
// answer.
func ExampleSystem_Proxy() {
	ds := elinda.GenerateDBpediaLike(elinda.DataConfig{Seed: 1, Persons: 200, PoliticianProps: 40})
	// A nanosecond threshold marks every backend answer heavy, so the
	// object expansion's repeat is served from the HVS. The property
	// expansion's answer lives in the decomposer memo alone.
	sys, err := elinda.OpenWithOptions(ds.Triples, proxy.Options{HeavyThreshold: time.Nanosecond})
	if err != nil {
		fmt.Println(err)
		return
	}
	for _, q := range []string{
		core.PropertyExpansionSPARQL(rdf.OWLThingIRI, false),
		core.ObjectExpansionSPARQL(datagen.Ont("Person"), datagen.Ont("birthPlace"), false),
	} {
		_, tr1, _ := sys.Proxy.QueryTraced(context.Background(), q)
		_, tr2, _ := sys.Proxy.QueryTraced(context.Background(), q)
		fmt.Println(tr1.Route, "then", tr2.Route)
	}
	// Output:
	// decomposer then decomposer
	// backend then hvs
}

// ExamplePane_PropertyChart shows the coverage-threshold filter on the
// Philosopher pane (the paper's 9 ingoing properties).
func ExamplePane_PropertyChart() {
	ds := elinda.GenerateDBpediaLike(elinda.DataConfig{Seed: 1, Persons: 200, PoliticianProps: 40})
	sys, err := elinda.Open(ds.Triples)
	if err != nil {
		fmt.Println(err)
		return
	}
	pane := sys.Explorer.OpenPane(datagen.Ont("Philosopher"))
	chart := pane.PropertyChart(true, 0.20)
	fmt.Printf("%d ingoing properties cross the 20%% threshold\n", len(chart.Bars))
	// Output:
	// 9 ingoing properties cross the 20% threshold
}
