package main

import (
	"encoding/json"
	"fmt"
	"net/url"
	"sort"
	"strconv"
	"strings"
)

// The preflight checks run once per boot, before warm-up, and compare
// decoded answers with the generator's planted facts and with counts
// taken from the generated triples. Inside the window every answer is
// then held byte-equal to the one validated here (see answers.check).

const rdfsLabel = "http://www.w3.org/2000/01/rdf-schema#label"

type paneJSON struct {
	Instances        int `json:"instances"`
	DirectSubclasses int `json:"directSubclasses"`
}

type chartJSON struct {
	Bars []struct {
		Label    string  `json:"label"`
		IRI      string  `json:"iri"`
		Count    int     `json:"count"`
		Coverage float64 `json:"coverage"`
	} `json:"bars"`
}

func (c chartJSON) bar(iri string) (count int, coverage float64, ok bool) {
	for _, b := range c.Bars {
		if b.IRI == iri {
			return b.Count, b.Coverage, true
		}
	}
	return 0, 0, false
}

// fetch sends r and decodes the JSON answer into v.
func fetch(c *client, r request, v any) error {
	body, _, err := c.do(r)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("%s: decoding: %w", r.target, err)
	}
	return nil
}

func expect(what string, got, want int) error {
	if got != want {
		return fmt.Errorf("%s = %d, the generated data says %d", what, got, want)
	}
	return nil
}

// checkExplore validates the Fig. 4 session against the planted facts.
func checkExplore(c *client, d *dataset) error {
	class := func(name string) url.Values { return url.Values{"class": {ont(name)}} }
	chart := func(name, kind string) (chartJSON, error) {
		q := url.Values{"kind": {kind}}
		if name != "" {
			q.Set("class", ont(name))
		}
		var ch chartJSON
		return ch, fetch(c, get("chart."+kind, "/api/chart", q), &ch)
	}

	var classes []struct{ IRI string }
	if err := fetch(c, get("classes", "/api/classes", url.Values{"q": {"phil"}}), &classes); err != nil {
		return err
	}
	found := false
	for _, cl := range classes {
		found = found || cl.IRI == ont("Philosopher")
	}
	if !found {
		return fmt.Errorf("class search for phil does not list Philosopher")
	}

	var root paneJSON
	if err := fetch(c, get("pane", "/api/pane", nil), &root); err != nil {
		return err
	}
	if err := expect("root pane instances", root.Instances, d.typeCounts[owlThing]); err != nil {
		return err
	}
	if err := expect("root pane direct subclasses", root.DirectSubclasses, d.facts.TopLevelClasses); err != nil {
		return err
	}
	top, err := chart("", "subclass")
	if err != nil {
		return err
	}
	populated := 0
	for _, b := range top.Bars {
		if b.Count > 0 {
			populated++
		}
		if err := expect("Thing subclass bar "+b.Label, b.Count, d.typeCounts[b.IRI]); err != nil {
			return err
		}
	}
	if err := expect("populated top-level classes", populated, d.facts.TopLevelClasses-d.facts.EmptyTopLevelClasses); err != nil {
		return err
	}

	for name, want := range map[string]int{"Philosopher": d.facts.Philosophers, "Politician": d.facts.Politicians} {
		var p paneJSON
		if err := fetch(c, get("pane", "/api/pane", class(name)), &p); err != nil {
			return err
		}
		if err := expect(name+" pane instances", p.Instances, want); err != nil {
			return err
		}
	}
	persons, err := chart("Person", "subclass")
	if err != nil {
		return err
	}
	for name, want := range map[string]int{"Philosopher": d.facts.Philosophers, "Politician": d.facts.Politicians} {
		got, _, _ := persons.bar(ont(name))
		if err := expect("Person subclass bar "+name, got, want); err != nil {
			return err
		}
	}
	for _, name := range []string{"Person", "Philosopher"} {
		props, err := chart(name, "property")
		if err != nil {
			return err
		}
		if _, cov, ok := props.bar(rdfsLabel); !ok || cov != 1.0 {
			return fmt.Errorf("%s property chart: rdfs:label coverage = %v (present %v), want 1.0", name, cov, ok)
		}
	}
	ingoing, err := chart("Philosopher", "property-in")
	if err != nil {
		return err
	}
	above := 0
	for _, b := range ingoing.Bars {
		if b.Coverage >= 0.20 {
			above++
		}
	}
	if err := expect("Philosopher ingoing properties at 20% coverage", above, d.facts.PhilosopherIngoingAboveThreshold); err != nil {
		return err
	}

	var conn chartJSON
	q := class("Philosopher")
	q.Set("property", influencedBy)
	if err := fetch(c, get("connections", "/api/connections", q), &conn); err != nil {
		return err
	}
	if _, _, ok := conn.bar(ont("Scientist")); !ok {
		return fmt.Errorf("influencedBy connections of Philosopher lack the Scientist bar")
	}
	// The planted data-quality error: people born in resources of type Food.
	q = class("Person")
	q.Set("property", birthPlace)
	if err := fetch(c, get("connections", "/api/connections", q), &conn); err != nil {
		return err
	}
	if n, _, ok := conn.bar(ont("Food")); !ok || n == 0 {
		return fmt.Errorf("birthPlace connections of Person lack the planted Food error bar")
	}

	var table struct {
		Columns []string          `json:"columns"`
		Rows    []json.RawMessage `json:"rows"`
	}
	tq := url.Values{"class": {ont("Philosopher")}, "props": {birthPlace, influencedBy}}
	if err := fetch(c, get("table", "/api/table", tq), &table); err != nil {
		return err
	}
	if err := expect("table columns", len(table.Columns), 2); err != nil {
		return err
	}
	return expect("table rows", len(table.Rows), d.facts.Philosophers)
}

// bindings decodes a SPARQL JSON result into one map per row.
func bindings(body []byte) ([]map[string]string, error) {
	var doc struct {
		Results struct {
			Bindings []map[string]struct{ Value string } `json:"bindings"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, err
	}
	rows := make([]map[string]string, len(doc.Results.Bindings))
	for i, b := range doc.Results.Bindings {
		rows[i] = map[string]string{}
		for k, v := range b {
			rows[i][k] = v.Value
		}
	}
	return rows, nil
}

func selectRows(c *client, query string) ([]map[string]string, error) {
	body, _, err := c.do(sparqlQuery("preflight", "", query))
	if err != nil {
		return nil, err
	}
	return bindings(body)
}

// checkBackend validates two of the drill-down shapes against the
// generated triples: a bar's member set and a subclass chart.
func checkBackend(c *client, d *dataset) error {
	rows, err := selectRows(c, "SELECT DISTINCT ?s WHERE { ?s a <"+ont("Politician")+"> . }")
	if err != nil {
		return err
	}
	if err := expect("Politician member set rows", len(rows), d.facts.Politicians); err != nil {
		return err
	}
	rows, err = selectRows(c, subclassChartSPARQL(ont("Person")))
	if err != nil {
		return err
	}
	for _, row := range rows {
		if row["c"] == ont("Philosopher") {
			n, _ := strconv.Atoi(row["n"])
			return expect("Philosopher bar of the Person subclass chart", n, d.facts.Philosophers)
		}
	}
	return fmt.Errorf("Person subclass chart has no Philosopher row")
}

// checkHot validates a property expansion: every person has a label, so
// the rdfs:label row must count exactly the Person instances.
func checkHot(c *client, d *dataset) error {
	rows, err := selectRows(c, propertyExpansionSPARQL(ont("Person"), false))
	if err != nil {
		return err
	}
	for _, row := range rows {
		if row["p"] == rdfsLabel {
			n, _ := strconv.Atoi(row["count"])
			return expect("rdfs:label subjects in the Person property expansion", n, d.typeCounts[ont("Person")])
		}
	}
	return fmt.Errorf("Person property expansion has no rdfs:label row")
}

// canonicalRows renders a result as a sorted list of rows, so two answers
// can be compared regardless of row order.
func canonicalRows(body []byte) (string, error) {
	rows, err := bindings(body)
	if err != nil {
		return "", err
	}
	lines := make([]string, len(rows))
	for i, row := range rows {
		keys := make([]string, 0, len(row))
		for k := range row {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var b strings.Builder
		for _, k := range keys {
			b.WriteString(k + "=" + row[k] + ";")
		}
		lines[i] = b.String()
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n"), nil
}
