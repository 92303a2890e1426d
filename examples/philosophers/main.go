// Command philosophers reproduces Figure 2 and Sections 3.2–3.4 of the
// paper: the exploration path owl:Thing → Agent → Person → Philosopher
// with breadcrumbs, the Philosopher property charts (outgoing with the
// 20% coverage threshold, and the 9 above-threshold ingoing properties),
// the data table for birthPlace/influencedBy with a Vienna filter, and
// the Connections tab showing "the types of people that influenced
// philosophers" — including the Scientist bar the paper calls out.
//
// Usage:
//
//	go run ./examples/philosophers [-persons N]
package main

import (
	"flag"
	"fmt"
	"log"

	"elinda"
	"elinda/internal/core"
	"elinda/internal/datagen"
	"elinda/internal/rdf"
	"elinda/internal/viz"
)

func main() {
	persons := flag.Int("persons", 2000, "size of the Person subtree")
	flag.Parse()
	log.SetFlags(0)

	ds := elinda.GenerateDBpediaLike(elinda.DataConfig{
		Seed: 1, Persons: *persons, PoliticianProps: 120, ErrorRate: 0.02,
	})
	sys, err := elinda.Open(ds.Triples)
	if err != nil {
		log.Fatal(err)
	}
	e := sys.Explorer

	// --- The Figure 2 drill-down path ---
	x := e.StartExploration()
	for _, class := range []string{"Agent", "Person", "Philosopher"} {
		if _, err := x.ExpandByText(class, core.SubclassExpansion); err != nil {
			log.Fatalf("expanding %s: %v", class, err)
		}
	}
	fmt.Print(viz.Breadcrumbs(x))
	fmt.Println()

	pane := e.OpenPane(datagen.Ont("Philosopher"))
	fmt.Print(viz.PaneHeader(pane))

	// --- Property Data tab (Section 3.3) ---
	out := pane.PropertyChart(false, 0) // default 20% threshold
	fmt.Println("\nOutgoing properties (coverage ≥ 20%):")
	fmt.Print(viz.Chart(out, viz.Options{Width: 40, MaxBars: 15, ShowCoverage: true}))

	in := pane.PropertyChart(true, 0)
	fmt.Printf("\nIngoing properties (coverage ≥ 20%%): %d properties\n", len(in.Bars))
	fmt.Print(viz.Chart(in, viz.Options{Width: 40, MaxBars: 12, ShowCoverage: true}))

	// --- Data table with a birthPlace filter (Section 3.3) ---
	birthPlace := datagen.Ont("birthPlace")
	influencedBy := datagen.Ont("influencedBy")
	table := pane.DataTable([]rdf.Term{birthPlace, influencedBy}, nil)
	fmt.Println("\nData table (birthPlace, influencedBy):")
	fmt.Print(viz.Table(table, 6))
	fmt.Println("\nThe SPARQL this table was generated from:")
	fmt.Println(table.Query)

	// Filter to one birthplace, then continue on the narrowed set Sf.
	somePlace := firstValue(table, 0)
	if !somePlace.IsZero() {
		sf := pane.FilterExpansion([]core.TableFilter{{Property: birthPlace, Equals: somePlace}})
		fmt.Printf("Filter expansion: philosophers born in %s → |Sf| = %d\n\n",
			somePlace.LocalName(), sf.Len())
	}

	// --- Connections tab (Section 3.4) ---
	conn, err := pane.ConnectionsChart(influencedBy, false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Connections via influencedBy — the types of people that influenced philosophers:")
	fmt.Print(viz.Chart(conn, viz.Options{Width: 40, MaxBars: 10}))

	if sci, ok := conn.BarByText("Scientist"); ok {
		fmt.Printf("\n\"One of the bars shown is Scientist\": %d scientists influenced philosophers.\n", sci.Count)
		// Continue the exploration on the narrowed set Osp.
		sciPane := e.OpenPaneForBar(sci.Bar)
		fmt.Printf("Opening a pane on that narrowed set: |S| = %d (not all %d scientists)\n",
			sciPane.Stats().Instances, e.ClassBar(datagen.Ont("Scientist")).Len())
	}
}

// firstValue returns the first value in the given column of the table.
func firstValue(t *core.DataTable, col int) rdf.Term {
	for _, row := range t.Rows {
		if len(row.Values[col]) > 0 {
			return row.Values[col][0]
		}
	}
	return rdf.Term{}
}
