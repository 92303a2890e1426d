package endpoint

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"elinda/internal/rdf"
	"elinda/internal/sparql"
	"elinda/internal/store"
)

func ex(s string) rdf.Term { return rdf.NewIRI("http://example.org/" + s) }

func newTestEngine(t *testing.T) *sparql.Engine {
	t.Helper()
	st := store.New(16)
	_, err := st.Load([]rdf.Triple{
		{S: ex("plato"), P: rdf.TypeIRI, O: ex("Philosopher")},
		{S: ex("plato"), P: rdf.LabelIRI, O: rdf.NewLangLiteral("Plato", "en")},
		{S: ex("plato"), P: ex("born"), O: rdf.NewTypedLiteral("-427", rdf.XSDInteger)},
		{S: ex("aristotle"), P: rdf.TypeIRI, O: ex("Philosopher")},
	})
	if err != nil {
		t.Fatal(err)
	}
	return sparql.NewEngine(st)
}

func TestMarshalUnmarshalRoundtrip(t *testing.T) {
	res := &sparql.Result{
		Vars: []string{"s", "o"},
		Rows: []sparql.Solution{
			{"s": ex("plato"), "o": rdf.NewLangLiteral("Plato", "en")},
			{"s": rdf.NewBlank("b1"), "o": rdf.NewTypedLiteral("5", rdf.XSDInteger)},
			{"s": ex("partial")}, // unbound o
		},
	}
	data, err := marshalJSON(res)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalResult(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Vars, back.Vars) {
		t.Errorf("vars: %v vs %v", res.Vars, back.Vars)
	}
	if len(back.Rows) != 3 {
		t.Fatalf("rows = %d", len(back.Rows))
	}
	for i := range res.Rows {
		if !reflect.DeepEqual(res.Rows[i], back.Rows[i]) {
			t.Errorf("row %d: %+v vs %+v", i, res.Rows[i], back.Rows[i])
		}
	}
}

func TestMarshalAsk(t *testing.T) {
	data, err := marshalJSON(&sparql.Result{Ask: true, AskTrue: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"boolean":true`) {
		t.Errorf("ASK JSON: %s", data)
	}
	back, err := UnmarshalResult(data)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Ask || !back.AskTrue {
		t.Errorf("round-trip ASK: %+v", back)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := UnmarshalResult([]byte(`{`)); err == nil {
		t.Error("bad JSON accepted")
	}
	if _, err := UnmarshalResult([]byte(`{"head":{}}`)); err == nil {
		t.Error("empty document accepted")
	}
	if _, err := UnmarshalResult([]byte(`{"head":{"vars":["x"]},"results":{"bindings":[{"x":{"type":"alien","value":"?"}}]}}`)); err == nil {
		t.Error("unknown term type accepted")
	}
}

func TestServerGET(t *testing.T) {
	srv := httptest.NewServer(NewServer(newTestEngine(t)))
	defer srv.Close()
	q := url.QueryEscape(`SELECT ?s WHERE { ?s a <http://example.org/Philosopher> . }`)
	resp, err := http.Get(srv.URL + "?query=" + q)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != ContentType {
		t.Errorf("content type = %q", ct)
	}
}

func TestServerPOSTAndClient(t *testing.T) {
	srv := httptest.NewServer(NewServer(newTestEngine(t)))
	defer srv.Close()

	for _, usePost := range []bool{false, true} {
		c := NewClient(srv.URL)
		c.UsePOST = usePost
		res, err := c.Query(context.Background(),
			`SELECT ?s WHERE { ?s a <http://example.org/Philosopher> . } ORDER BY ?s`)
		if err != nil {
			t.Fatalf("post=%v: %v", usePost, err)
		}
		if len(res.Rows) != 2 {
			t.Fatalf("post=%v: rows = %d", usePost, len(res.Rows))
		}
		var got []string
		for _, r := range res.Rows {
			got = append(got, r["s"].Value)
		}
		sort.Strings(got)
		if got[0] != "http://example.org/aristotle" {
			t.Errorf("rows: %v", got)
		}
	}
}

func TestServerRejectsBadRequests(t *testing.T) {
	srv := httptest.NewServer(NewServer(newTestEngine(t)))
	defer srv.Close()

	resp, err := http.Get(srv.URL) // no query
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing query: status = %d", resp.StatusCode)
	}

	resp, err = http.Get(srv.URL + "?query=" + url.QueryEscape("NOT SPARQL"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("syntax error: status = %d", resp.StatusCode)
	}

	req, _ := http.NewRequest(http.MethodDelete, srv.URL, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("DELETE: status = %d", resp.StatusCode)
	}
}

func TestServerTimeout(t *testing.T) {
	slow := ExecutorFunc(func(ctx context.Context, src string) (*sparql.Result, error) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(5 * time.Second):
			return &sparql.Result{}, nil
		}
	})
	s := NewServer(slow)
	s.Timeout = 20 * time.Millisecond
	srv := httptest.NewServer(s)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "?query=" + url.QueryEscape("SELECT ?s WHERE { ?s ?p ?o }"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("timeout status = %d, want 504", resp.StatusCode)
	}
}

func TestClientErrorPaths(t *testing.T) {
	// Endpoint returning 500.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer srv.Close()
	c := NewClient(srv.URL)
	if _, err := c.Query(context.Background(), "SELECT ?s WHERE { ?s ?p ?o }"); err == nil {
		t.Error("500 response should error")
	}
	// Unreachable endpoint.
	c2 := NewClient("http://127.0.0.1:1/never")
	c2.HTTPClient = &http.Client{Timeout: 100 * time.Millisecond}
	if _, err := c2.Query(context.Background(), "SELECT ?s WHERE { ?s ?p ?o }"); err == nil {
		t.Error("unreachable endpoint should error")
	}
	// Garbage body.
	srv2 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "not json")
	}))
	defer srv2.Close()
	if _, err := NewClient(srv2.URL).Query(context.Background(), "SELECT ?s WHERE { ?s ?p ?o }"); err == nil {
		t.Error("garbage body should error")
	}
}

func TestClientQueryWithExistingQueryString(t *testing.T) {
	var gotQuery string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotQuery = r.URL.Query().Get("query")
		data, _ := marshalJSON(&sparql.Result{Vars: []string{"s"}})
		w.Header().Set("Content-Type", ContentType)
		w.Write(data)
	}))
	defer srv.Close()
	c := NewClient(srv.URL + "?format=json")
	if _, err := c.Query(context.Background(), "ASK { ?s ?p ?o }"); err != nil {
		t.Fatal(err)
	}
	if gotQuery != "ASK { ?s ?p ?o }" {
		t.Errorf("query param = %q", gotQuery)
	}
}

// TestEndToEndRemoteMode: full stack — engine behind Server, accessed via
// Client, result identical to direct execution.
func TestEndToEndRemoteMode(t *testing.T) {
	eng := newTestEngine(t)
	srv := httptest.NewServer(NewServer(eng))
	defer srv.Close()

	src := `SELECT ?p (COUNT(?s) AS ?n) WHERE { ?s ?p ?o . } GROUP BY ?p ORDER BY DESC(?n) ?p`
	direct, err := eng.Query(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := NewClient(srv.URL).Query(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	if len(direct.Rows) != len(remote.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(direct.Rows), len(remote.Rows))
	}
	for i := range direct.Rows {
		if !reflect.DeepEqual(direct.Rows[i], remote.Rows[i]) {
			t.Errorf("row %d differs: %+v vs %+v", i, direct.Rows[i], remote.Rows[i])
		}
	}
}

// TestServerHonorsCancellationMidQuery checks that a query whose context
// dies mid-execution is cut off with 504 instead of running (and
// serializing) to completion: the engine's in-loop context checks must
// surface through the HTTP handler.
func TestServerHonorsCancellationMidQuery(t *testing.T) {
	st := store.New(4096)
	var ts []rdf.Triple
	for i := 0; i < 1500; i++ {
		ts = append(ts, rdf.Triple{
			S: ex(fmt.Sprintf("s%d", i)), P: ex("p"), O: ex(fmt.Sprintf("o%d", i)),
		})
	}
	if _, err := st.Load(ts); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(sparql.NewEngine(st))
	srv.Timeout = 20 * time.Millisecond

	// Three unconstrained patterns: ~3x10^9 intermediate rows, which only
	// terminates promptly because cancellation fires inside the join loop.
	q := url.QueryEscape(`SELECT ?a ?b ?c WHERE { ?a ?p1 ?x . ?b ?p2 ?y . ?c ?p3 ?z . }`)
	req := httptest.NewRequest(http.MethodGet, "/sparql?query="+q, nil)
	rec := httptest.NewRecorder()
	start := time.Now()
	srv.ServeHTTP(rec, req)
	elapsed := time.Since(start)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (body: %s)", rec.Code, rec.Body.String())
	}
	if elapsed > 10*time.Second {
		t.Fatalf("cancellation took %s, want prompt abort", elapsed)
	}
}
