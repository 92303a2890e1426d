package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"elinda"
	"elinda/internal/core"
	"elinda/internal/endpoint"
	"elinda/internal/rdf"
)

// api serves the explorer JSON endpoints consumed by a single-page
// frontend: dataset stats, pane data (subclass / property / connections
// charts), class search, and generated SPARQL.
type api struct {
	sys *elinda.System
}

func newAPI(sys *elinda.System) *api { return &api{sys: sys} }

// errNoExplorer answers every /api/ route of a process without a local
// explorer (-remote): the explorer API reads the local store, which there
// is not the knowledge base /sparql answers from.
var errNoExplorer = fmt.Errorf("explorer API requires a local knowledge base: %w", endpoint.ErrReadOnly)

func (a *api) register(mux *http.ServeMux) {
	if a.sys.Explorer == nil {
		mux.HandleFunc("/api/", func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, errNoExplorer.Error(), http.StatusNotImplemented)
		})
		return
	}
	mux.HandleFunc("/api/stats", a.stats)
	mux.HandleFunc("/api/classes", a.classes)
	mux.HandleFunc("/api/pane", a.pane)
	mux.HandleFunc("/api/chart", a.chart)
	mux.HandleFunc("/api/connections", a.connections)
	mux.HandleFunc("/api/table", a.table)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func badRequest(w http.ResponseWriter, format string, args ...any) {
	http.Error(w, fmt.Sprintf(format, args...), http.StatusBadRequest)
}

// The response bodies are structs whose fields are declared in sorted
// key order, so they encode exactly as the maps they replaced did.

type statsJSON struct {
	Classes         int `json:"classes"`
	DeclaredClasses int `json:"declaredClasses"`
	Properties      int `json:"properties"`
	Subjects        int `json:"subjects"`
	Triples         int `json:"triples"`
	TypedSubjects   int `json:"typedSubjects"`
}

// stats implements GET /api/stats — the "very first queries" of §3.1.
func (a *api) stats(w http.ResponseWriter, r *http.Request) {
	s := a.sys.Store.ComputeStats()
	writeJSON(w, statsJSON{
		Classes:         s.Classes,
		DeclaredClasses: s.DeclaredClasses,
		Properties:      s.Predicates,
		Subjects:        s.Subjects,
		Triples:         s.Triples,
		TypedSubjects:   s.TypedSubjects,
	})
}

type classJSON struct {
	IRI   string `json:"iri"`
	Label string `json:"label"`
}

// classes implements GET /api/classes?q=phil — the autocomplete box.
func (a *api) classes(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query().Get("q")
	out := []classJSON{} // no match encodes as [], not null
	for _, id := range a.sys.Store.SearchClasses(q) {
		out = append(out, classJSON{IRI: a.sys.Store.Dict().Term(id).Value, Label: a.sys.Store.Label(id)})
	}
	writeJSON(w, out)
}

// paneFor resolves the class parameter (empty = root pane).
func (a *api) paneFor(r *http.Request) (*core.Pane, error) {
	class := r.URL.Query().Get("class")
	if class == "" {
		return a.sys.Explorer.OpenRootPane(), nil
	}
	return a.sys.Explorer.OpenPane(rdf.NewIRI(class)), nil
}

// pane implements GET /api/pane?class=IRI — the pane header statistics.
func (a *api) pane(w http.ResponseWriter, r *http.Request) {
	p, err := a.paneFor(r)
	if err != nil {
		badRequest(w, "%v", err)
		return
	}
	st := p.Stats()
	writeJSON(w, paneJSON{
		DirectSubclasses:   st.DirectSubclasses,
		IndirectSubclasses: st.IndirectSubclasses,
		Instances:          st.Instances,
		Title:              p.Title,
	})
}

type paneJSON struct {
	DirectSubclasses   int    `json:"directSubclasses"`
	IndirectSubclasses int    `json:"indirectSubclasses"`
	Instances          int    `json:"instances"`
	Title              string `json:"title"`
}

type chartBarJSON struct {
	Label    string  `json:"label"`
	IRI      string  `json:"iri"`
	Count    int     `json:"count"`
	Coverage float64 `json:"coverage,omitempty"`
	Triples  int     `json:"triples,omitempty"`
	SPARQL   string  `json:"sparql,omitempty"`
}

type chartJSON struct {
	Bars       []chartBarJSON `json:"bars"`
	Kind       string         `json:"kind"`
	SourceSize int            `json:"sourceSize"`
}

func newChartJSON(c *core.Chart, withSPARQL bool) chartJSON {
	bars := make([]chartBarJSON, 0, len(c.Bars))
	for _, b := range c.Bars {
		cb := chartBarJSON{
			Label:    b.LabelText,
			IRI:      b.Bar.Label.Value,
			Count:    b.Count,
			Coverage: b.Coverage,
			Triples:  b.Triples,
		}
		if withSPARQL {
			cb.SPARQL = b.Bar.SPARQL()
		}
		bars = append(bars, cb)
	}
	return chartJSON{Bars: bars, Kind: c.Kind.String(), SourceSize: c.SourceSize}
}

// chart implements GET /api/chart?class=IRI&kind=subclass|property|property-in
// with optional threshold= and sparql=1.
func (a *api) chart(w http.ResponseWriter, r *http.Request) {
	p, err := a.paneFor(r)
	if err != nil {
		badRequest(w, "%v", err)
		return
	}
	kind := r.URL.Query().Get("kind")
	if kind == "" {
		kind = "subclass"
	}
	threshold := -1.0
	if t := r.URL.Query().Get("threshold"); t != "" {
		threshold, err = strconv.ParseFloat(t, 64)
		if err != nil {
			badRequest(w, "bad threshold: %v", err)
			return
		}
	}
	var chart *core.Chart
	switch kind {
	case "subclass":
		chart = p.SubclassChart()
	case "property":
		chart = p.PropertyChart(false, threshold)
	case "property-in":
		chart = p.PropertyChart(true, threshold)
	default:
		badRequest(w, "unknown chart kind %q", kind)
		return
	}
	writeJSON(w, newChartJSON(chart, r.URL.Query().Get("sparql") == "1"))
}

// connections implements GET /api/connections?class=IRI&property=IRI
// [&incoming=1] — the Connections tab (object expansion).
func (a *api) connections(w http.ResponseWriter, r *http.Request) {
	p, err := a.paneFor(r)
	if err != nil {
		badRequest(w, "%v", err)
		return
	}
	prop := r.URL.Query().Get("property")
	if prop == "" {
		badRequest(w, "missing property parameter")
		return
	}
	incoming := r.URL.Query().Get("incoming") == "1"
	chart, err := p.ConnectionsChart(rdf.NewIRI(prop), incoming)
	if err != nil {
		badRequest(w, "%v", err)
		return
	}
	writeJSON(w, newChartJSON(chart, r.URL.Query().Get("sparql") == "1"))
}

// table implements GET /api/table?class=IRI&props=IRI&props=IRI
// &filterProp=IRI&filterValue=IRI (props repeats once per column; in place
// of filterValue, filterContains=TEXT matches substrings) — the data table
// with its generated SPARQL.
func (a *api) table(w http.ResponseWriter, r *http.Request) {
	p, err := a.paneFor(r)
	if err != nil {
		badRequest(w, "%v", err)
		return
	}
	var props []rdf.Term
	for _, iri := range r.URL.Query()["props"] {
		props = append(props, rdf.NewIRI(iri))
	}
	if len(props) == 0 {
		badRequest(w, "missing props parameter")
		return
	}
	var filters []core.TableFilter
	if fp := r.URL.Query().Get("filterProp"); fp != "" {
		f := core.TableFilter{Property: rdf.NewIRI(fp)}
		if fv := r.URL.Query().Get("filterValue"); fv != "" {
			f.Equals = rdf.NewIRI(fv)
		} else if fc := r.URL.Query().Get("filterContains"); fc != "" {
			f.Contains = fc
		}
		filters = append(filters, f)
	}
	table := p.DataTable(props, filters)
	rows := make([]tableRowJSON, 0, len(table.Rows))
	for _, row := range table.Rows {
		cells := make([][]string, len(row.Values))
		for i, vals := range row.Values {
			for _, v := range vals {
				cells[i] = append(cells[i], v.Value)
			}
		}
		rows = append(rows, tableRowJSON{Instance: row.Instance.Value, Values: cells})
	}
	writeJSON(w, tableJSON{Columns: columnIRIs(table.Columns), Rows: rows, SPARQL: table.Query})
}

type tableJSON struct {
	Columns []string       `json:"columns"`
	Rows    []tableRowJSON `json:"rows"`
	SPARQL  string         `json:"sparql"`
}

type tableRowJSON struct {
	Instance string     `json:"instance"`
	Values   [][]string `json:"values"`
}

func columnIRIs(cols []rdf.Term) []string {
	out := make([]string, len(cols))
	for i, c := range cols {
		out[i] = c.Value
	}
	return out
}
