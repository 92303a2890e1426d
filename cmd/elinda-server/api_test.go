package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"strings"
	"testing"

	"elinda"
	"elinda/internal/core"
	"elinda/internal/datagen"
	"elinda/internal/endpoint"
	"elinda/internal/proxy"
	"elinda/internal/rdf"
	"elinda/internal/store"
)

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	return serveAPI(t, testSystem(t))
}

func testSystem(t *testing.T) *elinda.System {
	t.Helper()
	ds := elinda.GenerateDBpediaLike(elinda.DataConfig{Seed: 1, Persons: 300, PoliticianProps: 50})
	sys, err := elinda.Open(ds.Triples)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func serveAPI(t *testing.T, sys *elinda.System) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.Handle("/sparql", sys.Endpoint())
	newAPI(sys).register(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func getJSON(t *testing.T, srv *httptest.Server, path string, out any) int {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", path, err)
		}
	}
	return resp.StatusCode
}

// The map encoding the /api handlers used before their bodies became
// structs. It is the oracle the struct bodies must match byte for byte:
// encoding/json writes a map's keys sorted, so the structs declare their
// fields in that order.

func oracleStats(sys *elinda.System) any {
	s := sys.Store.ComputeStats()
	return map[string]any{
		"triples":         s.Triples,
		"classes":         s.Classes,
		"declaredClasses": s.DeclaredClasses,
		"subjects":        s.Subjects,
		"properties":      s.Predicates,
		"typedSubjects":   s.TypedSubjects,
	}
}

func oracleClasses(sys *elinda.System, q string) any {
	out := []map[string]string{}
	for _, id := range sys.Store.SearchClasses(q) {
		out = append(out, map[string]string{
			"iri":   sys.Store.Dict().Term(id).Value,
			"label": sys.Store.Label(id),
		})
	}
	return out
}

func oraclePane(p *core.Pane) any {
	st := p.Stats()
	return map[string]any{
		"title":              p.Title,
		"instances":          st.Instances,
		"directSubclasses":   st.DirectSubclasses,
		"indirectSubclasses": st.IndirectSubclasses,
	}
}

func oracleChart(c *core.Chart, withSPARQL bool) any {
	bars := make([]chartBarJSON, 0, len(c.Bars)) // a struct already then
	for _, b := range c.Bars {
		cb := chartBarJSON{Label: b.LabelText, IRI: b.Bar.Label.Value, Count: b.Count, Coverage: b.Coverage, Triples: b.Triples}
		if withSPARQL {
			cb.SPARQL = b.Bar.SPARQL()
		}
		bars = append(bars, cb)
	}
	return map[string]any{
		"kind":       c.Kind.String(),
		"sourceSize": c.SourceSize,
		"bars":       bars,
	}
}

func oracleTable(table *core.DataTable) any {
	rows := make([]map[string]any, 0, len(table.Rows))
	for _, row := range table.Rows {
		cells := make([][]string, len(row.Values))
		for i, vals := range row.Values {
			for _, v := range vals {
				cells[i] = append(cells[i], v.Value)
			}
		}
		rows = append(rows, map[string]any{
			"instance": row.Instance.Value,
			"values":   cells,
		})
	}
	columns := make([]string, len(table.Columns))
	for i, c := range table.Columns {
		columns[i] = c.Value
	}
	return map[string]any{
		"columns": columns,
		"rows":    rows,
		"sparql":  table.Query,
	}
}

// TestAPIBodiesMatchMapEncoding GETs every /api route on a fixed store
// and compares each body byte for byte with the map-encoded oracle built
// from the same explorer calls.
func TestAPIBodiesMatchMapEncoding(t *testing.T) {
	sys := testSystem(t)
	srv := serveAPI(t, sys)
	expl := sys.Explorer
	ont := func(name string) string { return datagen.OntNS + name }
	q := url.QueryEscape
	root, phil, person := expl.OpenRootPane(), expl.OpenPane(rdf.NewIRI(ont("Philosopher"))), expl.OpenPane(rdf.NewIRI(ont("Person")))
	conns, err := phil.ConnectionsChart(rdf.NewIRI(ont("influencedBy")), true)
	if err != nil {
		t.Fatal(err)
	}
	columns := []rdf.Term{rdf.NewIRI(ont("birthPlace")), rdf.NewIRI(ont("influencedBy"))}
	filter := core.TableFilter{Property: columns[0], Contains: "Place_1"}
	cols := "&props=" + q(ont("birthPlace")) + "&props=" + q(ont("influencedBy"))
	for _, c := range []struct {
		path string
		want any
	}{
		{"/api/stats", oracleStats(sys)},
		{"/api/classes?q=phil", oracleClasses(sys, "phil")},
		{"/api/classes?q=nosuchclassanywhere", oracleClasses(sys, "nosuchclassanywhere")},
		{"/api/pane", oraclePane(root)},
		{"/api/pane?class=" + q(ont("Philosopher")), oraclePane(phil)},
		{"/api/chart?sparql=1", oracleChart(root.SubclassChart(), true)},
		{"/api/chart?class=" + q(ont("Person")) + "&kind=property", oracleChart(person.PropertyChart(false, -1), false)},
		{"/api/chart?class=" + q(ont("Philosopher")) + "&kind=property-in&threshold=0.2&sparql=1", oracleChart(phil.PropertyChart(true, 0.2), true)},
		{"/api/connections?class=" + q(ont("Philosopher")) + "&property=" + q(ont("influencedBy")) + "&incoming=1&sparql=1", oracleChart(conns, true)},
		{"/api/table?class=" + q(ont("Philosopher")) + cols, oracleTable(phil.DataTable(columns, nil))},
		{"/api/table?class=" + q(ont("Philosopher")) + cols + "&filterProp=" + q(ont("birthPlace")) + "&filterContains=Place_1",
			oracleTable(phil.DataTable(columns, []core.TableFilter{filter}))},
	} {
		resp, err := http.Get(srv.URL + c.path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(c.want); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || !bytes.Equal(body, want.Bytes()) {
			t.Errorf("GET %s = %d\n%s\nmap encoding\n%s", c.path, resp.StatusCode, body, want.Bytes())
		}
	}
}

func TestAPIStats(t *testing.T) {
	srv := testServer(t)
	var stats map[string]any
	if code := getJSON(t, srv, "/api/stats", &stats); code != 200 {
		t.Fatalf("status = %d", code)
	}
	if stats["triples"].(float64) <= 0 {
		t.Errorf("stats = %v", stats)
	}
	if stats["declaredClasses"].(float64) < 49 {
		t.Errorf("declaredClasses = %v", stats["declaredClasses"])
	}
}

func TestAPIClassesSearch(t *testing.T) {
	srv := testServer(t)
	var classes []map[string]string
	if code := getJSON(t, srv, "/api/classes?q=philo", &classes); code != 200 {
		t.Fatalf("status = %d", code)
	}
	if len(classes) != 1 || classes[0]["label"] != "Philosopher" {
		t.Errorf("classes = %v", classes)
	}
}

// TestAPIClassesEmptyIsArray: a search that matches nothing answers the
// empty JSON array the UI iterates over, not null.
func TestAPIClassesEmptyIsArray(t *testing.T) {
	srv := testServer(t)
	resp, err := http.Get(srv.URL + "/api/classes?q=nosuchclassanywhere")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(string(body)); resp.StatusCode != 200 || got != "[]" {
		t.Errorf("GET /api/classes without a match = %d %q, want 200 []", resp.StatusCode, got)
	}
}

func TestAPIPaneRootAndClass(t *testing.T) {
	srv := testServer(t)
	var pane map[string]any
	if code := getJSON(t, srv, "/api/pane", &pane); code != 200 {
		t.Fatalf("root pane status = %d", code)
	}
	if pane["directSubclasses"].(float64) != 49 {
		t.Errorf("root pane = %v", pane)
	}
	classIRI := url.QueryEscape(datagen.OntNS + "Agent")
	if code := getJSON(t, srv, "/api/pane?class="+classIRI, &pane); code != 200 {
		t.Fatalf("Agent pane status = %d", code)
	}
	if pane["directSubclasses"].(float64) != 5 {
		t.Errorf("Agent pane = %v", pane)
	}
}

func TestAPIChartKinds(t *testing.T) {
	srv := testServer(t)
	classIRI := url.QueryEscape(datagen.OntNS + "Philosopher")
	var chart struct {
		Kind string         `json:"kind"`
		Bars []chartBarJSON `json:"bars"`
	}
	if code := getJSON(t, srv, "/api/chart?class="+classIRI+"&kind=property&threshold=0.2", &chart); code != 200 {
		t.Fatalf("status = %d", code)
	}
	if chart.Kind != "property" || len(chart.Bars) == 0 {
		t.Errorf("chart = %+v", chart)
	}
	if code := getJSON(t, srv, "/api/chart?class="+classIRI+"&kind=property-in&threshold=0.2", &chart); code != 200 {
		t.Fatalf("status = %d", code)
	}
	if len(chart.Bars) != 9 {
		t.Errorf("ingoing bars = %d, want 9", len(chart.Bars))
	}
	// Unknown kind and bad threshold are client errors.
	var dummy map[string]any
	if code := getJSON(t, srv, "/api/chart?kind=zigzag", &dummy); code != http.StatusBadRequest {
		t.Errorf("unknown kind status = %d", code)
	}
	if code := getJSON(t, srv, "/api/chart?threshold=x", &dummy); code != http.StatusBadRequest {
		t.Errorf("bad threshold status = %d", code)
	}
}

func TestAPIChartWithSPARQL(t *testing.T) {
	srv := testServer(t)
	var chart struct {
		Bars []chartBarJSON `json:"bars"`
	}
	if code := getJSON(t, srv, "/api/chart?kind=subclass&sparql=1", &chart); code != 200 {
		t.Fatalf("status = %d", code)
	}
	if len(chart.Bars) == 0 || !strings.Contains(chart.Bars[0].SPARQL, "SELECT DISTINCT") {
		t.Errorf("per-bar SPARQL missing: %+v", chart.Bars[0])
	}
}

func TestAPIConnections(t *testing.T) {
	srv := testServer(t)
	classIRI := url.QueryEscape(datagen.OntNS + "Philosopher")
	propIRI := url.QueryEscape(datagen.OntNS + "influencedBy")
	var chart struct {
		Kind string         `json:"kind"`
		Bars []chartBarJSON `json:"bars"`
	}
	code := getJSON(t, srv, "/api/connections?class="+classIRI+"&property="+propIRI, &chart)
	if code != 200 {
		t.Fatalf("status = %d", code)
	}
	found := false
	for _, b := range chart.Bars {
		if b.Label == "Scientist" {
			found = true
		}
	}
	if !found {
		t.Errorf("Scientist bar missing: %+v", chart.Bars)
	}
	var dummy map[string]any
	if code := getJSON(t, srv, "/api/connections?class="+classIRI, &dummy); code != http.StatusBadRequest {
		t.Errorf("missing property status = %d", code)
	}
}

func TestAPITable(t *testing.T) {
	srv := testServer(t)
	classIRI := url.QueryEscape(datagen.OntNS + "Philosopher")
	bp := url.QueryEscape(datagen.OntNS + "birthPlace")
	var table struct {
		Columns []string `json:"columns"`
		Rows    []struct {
			Instance string     `json:"instance"`
			Values   [][]string `json:"values"`
		} `json:"rows"`
		SPARQL string `json:"sparql"`
	}
	code := getJSON(t, srv, "/api/table?class="+classIRI+"&props="+bp, &table)
	if code != 200 {
		t.Fatalf("status = %d", code)
	}
	if len(table.Columns) != 1 || len(table.Rows) == 0 || table.SPARQL == "" {
		t.Errorf("table = %+v", table)
	}
	var dummy map[string]any
	if code := getJSON(t, srv, "/api/table?class="+classIRI, &dummy); code != http.StatusBadRequest {
		t.Errorf("missing props status = %d", code)
	}
}

func TestAPITableWithFilter(t *testing.T) {
	srv := testServer(t)
	classIRI := url.QueryEscape(datagen.OntNS + "Philosopher")
	bp := url.QueryEscape(datagen.OntNS + "birthPlace")
	var unfiltered, filtered struct {
		Rows []json.RawMessage `json:"rows"`
	}
	getJSON(t, srv, "/api/table?class="+classIRI+"&props="+bp, &unfiltered)
	code := getJSON(t, srv,
		"/api/table?class="+classIRI+"&props="+bp+"&filterProp="+bp+"&filterContains=Place_1",
		&filtered)
	if code != 200 {
		t.Fatalf("status = %d", code)
	}
	if len(filtered.Rows) == 0 || len(filtered.Rows) >= len(unfiltered.Rows) {
		t.Errorf("filter ineffective: %d vs %d rows", len(filtered.Rows), len(unfiltered.Rows))
	}
}

// TestAPIRemoteNotImplemented: under -remote the process has no local
// explorer (main builds the system without one), so every /api/ route is
// a clean 501 rather than a nil dereference recovered as a 500, or an
// answer from the local store that /sparql does not serve.
func TestAPIRemoteNotImplemented(t *testing.T) {
	st := store.New(0)
	sys := &elinda.System{Store: st}
	sys.Proxy = proxy.NewWithBackend(st, endpoint.NewClient("http://127.0.0.1:0/sparql"), proxy.Options{DisableDecomposer: true})
	var ready endpoint.Readiness
	srv := httptest.NewServer(writerHandler(sys, sys.Endpoint(), &ready, nil))
	defer srv.Close()

	for _, path := range []string{
		"/api/stats", "/api/classes?q=phil", "/api/pane", "/api/chart?kind=property",
		"/api/connections?property=http%3A%2F%2Fx%2Fp", "/api/table?props=http%3A%2F%2Fx%2Fp",
	} {
		t.Run(path, func(t *testing.T) {
			resp, err := http.Get(srv.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotImplemented || !strings.Contains(string(body), endpoint.ErrReadOnly.Error()) {
				t.Errorf("GET %s = %d %q, want 501 naming %q", path, resp.StatusCode, body, endpoint.ErrReadOnly)
			}
			var doc map[string]json.RawMessage
			if code := getJSON(t, srv, "/metrics", &doc); code != http.StatusOK {
				t.Fatalf("/metrics = %d", code)
			}
			if got := string(doc["panics_total"]); got != "0" {
				t.Errorf("panics_total = %s after GET %s, want 0", got, path)
			}
		})
	}
}

func TestBuildStoreFromFiles(t *testing.T) {
	ds := elinda.GenerateDBpediaLike(elinda.DataConfig{Seed: 3, Persons: 50, PoliticianProps: 40})
	dir := t.TempDir()

	ntPath := dir + "/data.nt"
	if _, err := createAndWriteNT(ntPath, ds); err != nil {
		t.Fatal(err)
	}
	st, fromSnap, err := buildStore("", ntPath)
	if err != nil {
		t.Fatal(err)
	}
	if fromSnap {
		t.Error("file load reported as snapshot restore")
	}
	// The streamed load must land exactly the distinct-triple count a
	// serial load of the same data produces.
	ref := store.New(len(ds.Triples))
	if _, err := ref.Load(ds.Triples); err != nil {
		t.Fatal(err)
	}
	if st.Len() != ref.Len() {
		t.Errorf("streamed %d triples, serial load has %d", st.Len(), ref.Len())
	}
	if _, _, err := buildStore("", dir+"/missing.nt"); err == nil {
		t.Error("missing file accepted")
	}
	// No path: an empty store, which warms and answers charts.
	empty, fromSnap, err := buildStore("", "")
	if err != nil {
		t.Fatal(err)
	}
	if fromSnap || empty.Len() != 0 {
		t.Errorf("no data flag: fromSnap=%v len=%d, want an empty store", fromSnap, empty.Len())
	}
	sys := elinda.NewSystemFromStore(empty, proxy.Options{})
	sys.Warm()
	res, err := sys.Proxy.Query(context.Background(), core.PropertyExpansionSPARQL(rdf.OWLThingIRI, false))
	if err != nil || len(res.Rows) != 0 {
		t.Errorf("root property expansion over the empty store = (%v, %v), want no rows", res, err)
	}

	// Snapshot round trip: save, then warm-boot from it.
	snapPath := dir + "/kb.snap"
	if err := st.SaveSnapshot(snapPath); err != nil {
		t.Fatal(err)
	}
	warm, fromSnap, err := buildStore(snapPath, ntPath)
	if err != nil {
		t.Fatal(err)
	}
	if !fromSnap {
		t.Error("snapshot restore not reported")
	}
	if warm.Len() != st.Len() || warm.Generation() != st.Generation() {
		t.Errorf("warm boot diverges: len %d/%d gen %d/%d", warm.Len(), st.Len(), warm.Generation(), st.Generation())
	}
	// A missing snapshot path falls back to the cold load.
	cold, fromSnap, err := buildStore(dir+"/none.snap", ntPath)
	if err != nil {
		t.Fatal(err)
	}
	if fromSnap || cold.Len() != st.Len() {
		t.Errorf("missing-snapshot fallback broken: fromSnap=%v len=%d/%d", fromSnap, cold.Len(), st.Len())
	}
	// A corrupt snapshot fails loudly instead of silently re-parsing.
	if err := os.WriteFile(dir+"/corrupt.snap", []byte("ELINDSN\x01garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := buildStore(dir+"/corrupt.snap", ntPath); err == nil {
		t.Error("corrupt snapshot accepted")
	}
}

func createAndWriteNT(path string, ds *datagen.Dataset) (string, error) {
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	if _, err := rdf.WriteNTriples(f, ds.Triples); err != nil {
		return "", err
	}
	return path, nil
}

func TestUIServed(t *testing.T) {
	mux := http.NewServeMux()
	registerUI(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/html") {
		t.Errorf("content type = %q", ct)
	}
	body := make([]byte, 1024)
	n, _ := resp.Body.Read(body)
	if !strings.Contains(string(body[:n]), "eLinda") {
		t.Error("UI page missing title")
	}
	// Non-root paths 404.
	resp2, err := http.Get(srv.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("non-root status = %d", resp2.StatusCode)
	}
}
