// Command elinda is the interactive terminal explorer — the CLI
// counterpart of the paper's single-page web application. It supports the
// full interaction model of Section 3: drilling down the class hierarchy,
// property charts with a coverage threshold, ingoing properties, the
// Connections tab (object expansion), data tables with filters, class
// autocomplete, breadcrumbs, and per-bar SPARQL generation.
//
// Usage:
//
//	elinda [-load data.nt | -persons N | -dataset lgd]
//
// Then type "help" at the prompt.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"

	"elinda"
	"elinda/internal/core"
	"elinda/internal/datagen"
	"elinda/internal/rdf"
	"elinda/internal/viz"
)

func main() {
	var (
		load    = flag.String("load", "", "load dataset from an .nt or .ttl file")
		dataset = flag.String("dataset", "dbpedia", "synthetic dataset when -load is absent: dbpedia | lgd | yago")
		persons = flag.Int("persons", 2000, "synthetic dataset size")
	)
	flag.Parse()
	log.SetFlags(0)

	sys, err := openSystem(*load, *dataset, *persons)
	if err != nil {
		log.Fatal(err)
	}
	repl := &repl{sys: sys, out: os.Stdout}
	repl.banner()
	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("elinda> ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "exit" || line == "quit" {
			return
		}
		if line != "" {
			repl.dispatch(line)
		}
		fmt.Print("elinda> ")
	}
}

func openSystem(load, dataset string, persons int) (*elinda.System, error) {
	if load != "" {
		f, err := os.Open(load)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if rdf.DetectFormat(load) == rdf.SyntaxTurtle {
			return elinda.OpenTurtle(f)
		}
		return elinda.OpenNTriples(f)
	}
	if dataset == "lgd" {
		return elinda.Open(elinda.GenerateLinkedGeoDataLike(datagen.DefaultLGDConfig()).Triples)
	}
	if dataset == "yago" {
		return elinda.Open(datagen.GenerateYago(datagen.DefaultYagoConfig()).Triples)
	}
	cfg := elinda.DefaultDataConfig()
	cfg.Persons = persons
	return elinda.Open(elinda.GenerateDBpediaLike(cfg).Triples)
}

type repl struct {
	sys *elinda.System
	out io.Writer
	// pane is the current pane; exploration tracks the breadcrumb path.
	pane        *core.Pane
	exploration *core.Exploration
	// lastChart is the most recently displayed chart (targets for "open").
	lastChart *core.Chart
}

func (r *repl) banner() {
	stats := r.sys.Store.ComputeStats()
	fmt.Fprintf(r.out, "eLinda — Explorer for Linked Data\n")
	fmt.Fprintf(r.out, "dataset: %d triples, %d classes, %d typed subjects\n",
		stats.Triples, stats.Classes, stats.TypedSubjects)
	r.pane = r.sys.Explorer.OpenRootPane()
	r.exploration = r.sys.Explorer.StartExploration()
	r.showPane()
	fmt.Fprintln(r.out, `type "help" for commands`)
}

func (r *repl) dispatch(line string) {
	fields := strings.Fields(line)
	cmd, args := fields[0], fields[1:]
	switch cmd {
	case "help":
		r.help()
	case "pane":
		r.showPane()
	case "open":
		r.open(args)
	case "props":
		r.props(args, false)
	case "inprops":
		r.props(args, true)
	case "connect":
		r.connect(args)
	case "table":
		r.table(args)
	case "search":
		r.search(args)
	case "sparql":
		r.sparql(args)
	case "back":
		if r.exploration.Back() {
			fmt.Fprintln(r.out, viz.Breadcrumbs(r.exploration))
		} else {
			fmt.Fprintln(r.out, "already at the initial chart")
		}
	case "path":
		fmt.Fprint(r.out, viz.Breadcrumbs(r.exploration))
	case "stats":
		s := r.sys.Store.ComputeStats()
		fmt.Fprintf(r.out, "%+v\n", s)
	default:
		fmt.Fprintf(r.out, "unknown command %q — try help\n", cmd)
	}
}

func (r *repl) help() {
	fmt.Fprint(r.out, `commands:
  pane                      show the current pane (stats + subclass chart)
  open <Class>              drill into a class (by label)
  props [threshold]         outgoing property chart (default threshold 0.2; use 0 for all)
  inprops [threshold]       ingoing property chart
  connect <property>        Connections tab: object expansion of a property
  table <p1> [p2...]        data table with the given property columns (by local name)
  search <text>             class autocomplete
  sparql <Label>            generated SPARQL for a bar of the last chart
  path                      breadcrumb trail
  back                      undo the last exploration step
  stats                     dataset statistics
  exit
`)
}

func (r *repl) showPane() {
	fmt.Fprint(r.out, viz.PaneHeader(r.pane))
	chart := r.pane.SubclassChart()
	r.lastChart = chart
	fmt.Fprint(r.out, viz.Chart(chart, viz.Options{Width: 44, MaxBars: 15}))
}

func (r *repl) open(args []string) {
	if len(args) == 0 {
		fmt.Fprintln(r.out, "usage: open <ClassLabel>")
		return
	}
	label := strings.Join(args, " ")
	// Prefer a bar of the current chart (keeps the breadcrumb honest),
	// falling back to the autocomplete index.
	if _, err := r.exploration.ExpandByText(label, core.SubclassExpansion); err == nil {
		cur := r.exploration.Current()
		r.pane = r.sys.Explorer.OpenPane(cur.SourceLabel)
		fmt.Fprint(r.out, viz.Breadcrumbs(r.exploration))
		r.showPane()
		return
	}
	hits := r.sys.Store.SearchClasses(label)
	if len(hits) == 0 {
		fmt.Fprintf(r.out, "no class matching %q\n", label)
		return
	}
	class := r.sys.Store.Dict().Term(hits[0])
	r.pane = r.sys.Explorer.OpenPane(class)
	r.exploration = r.sys.Explorer.StartExplorationAt(class)
	r.showPane()
}

func (r *repl) props(args []string, incoming bool) {
	threshold := 0.0 // explorer default (0.2)
	if len(args) > 0 {
		t, err := strconv.ParseFloat(args[0], 64)
		if err != nil {
			fmt.Fprintf(r.out, "bad threshold %q\n", args[0])
			return
		}
		if t == 0 {
			threshold = -1 // show all
		} else {
			threshold = t
		}
	}
	chart := r.pane.PropertyChart(incoming, threshold)
	r.lastChart = chart
	fmt.Fprint(r.out, viz.Chart(chart, viz.Options{Width: 40, MaxBars: 20, ShowCoverage: true}))
}

func (r *repl) connect(args []string) {
	if len(args) == 0 {
		fmt.Fprintln(r.out, "usage: connect <propertyLocalName>")
		return
	}
	prop, ok := r.resolveProperty(args[0])
	if !ok {
		fmt.Fprintf(r.out, "property %q not found on this pane\n", args[0])
		return
	}
	chart, err := r.pane.ConnectionsChart(prop, false)
	if err != nil {
		fmt.Fprintln(r.out, err)
		return
	}
	r.lastChart = chart
	fmt.Fprint(r.out, viz.Chart(chart, viz.Options{Width: 40, MaxBars: 15}))
}

func (r *repl) table(args []string) {
	if len(args) == 0 {
		fmt.Fprintln(r.out, "usage: table <prop1> [prop2 ...]")
		return
	}
	var props []rdf.Term
	for _, name := range args {
		p, ok := r.resolveProperty(name)
		if !ok {
			fmt.Fprintf(r.out, "property %q not found on this pane\n", name)
			return
		}
		props = append(props, p)
	}
	table := r.pane.DataTable(props, nil)
	fmt.Fprint(r.out, viz.Table(table, 15))
}

// resolveProperty finds a property by local name among the pane's
// outgoing or ingoing properties.
func (r *repl) resolveProperty(local string) (rdf.Term, bool) {
	for _, incoming := range []bool{false, true} {
		chart := r.pane.PropertyChart(incoming, -1)
		for _, b := range chart.Bars {
			if b.Bar.Label.LocalName() == local || b.LabelText == local {
				return b.Bar.Label, true
			}
		}
	}
	return rdf.Term{}, false
}

func (r *repl) search(args []string) {
	q := strings.Join(args, " ")
	hits := r.sys.Store.SearchClasses(q)
	if len(hits) == 0 {
		fmt.Fprintln(r.out, "no matches")
		return
	}
	for i, id := range hits {
		if i >= 15 {
			fmt.Fprintf(r.out, "... and %d more\n", len(hits)-i)
			break
		}
		fmt.Fprintf(r.out, "  %s\n", r.sys.Store.Label(id))
	}
}

func (r *repl) sparql(args []string) {
	if r.lastChart == nil {
		fmt.Fprintln(r.out, "no chart displayed yet")
		return
	}
	if len(args) == 0 {
		fmt.Fprintln(r.out, "usage: sparql <BarLabel>")
		return
	}
	label := strings.Join(args, " ")
	bar, ok := r.lastChart.BarByText(label)
	if !ok {
		fmt.Fprintf(r.out, "no bar labeled %q in the last chart\n", label)
		return
	}
	fmt.Fprintln(r.out, bar.Bar.SPARQL())
}
