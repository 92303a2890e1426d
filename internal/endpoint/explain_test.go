package endpoint

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"elinda/internal/sparql"
)

// TestServerExplain: explain=1 returns the plan document instead of
// executing the query, via GET and POST form alike.
func TestServerExplain(t *testing.T) {
	srv := httptest.NewServer(NewServer(newTestEngine(t)))
	defer srv.Close()
	query := `SELECT ?s WHERE { ?s a <http://example.org/Philosopher> . ?s <http://example.org/born> ?y . }`

	get, err := http.Get(srv.URL + "?query=" + url.QueryEscape(query) + "&explain=1")
	if err != nil {
		t.Fatal(err)
	}
	defer get.Body.Close()
	post, err := http.PostForm(srv.URL, url.Values{"query": {query}, "explain": {"1"}})
	if err != nil {
		t.Fatal(err)
	}
	defer post.Body.Close()

	for name, resp := range map[string]*http.Response{"GET": get, "POST": post} {
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status = %d", name, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s content type = %q", name, ct)
		}
		var rep sparql.PlanReport
		if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
			t.Fatalf("%s decode: %v", name, err)
		}
		if rep.Mode != "greedy" || len(rep.Steps) != 2 {
			t.Errorf("%s report = %+v", name, rep)
		}
	}
}

// TestServerExplainReportsOrderer: the mode in the explain document says
// whether the orderer ran — greedy for a chain of any length from two
// patterns, none for a single pattern, which keeps query order.
func TestServerExplainReportsOrderer(t *testing.T) {
	srv := httptest.NewServer(NewServer(newTestEngine(t)))
	defer srv.Close()
	for patterns, want := range map[int]string{1: "none", 10: "greedy", 11: "greedy"} {
		var q strings.Builder
		q.WriteString("SELECT * WHERE {")
		for i := 0; i < patterns; i++ {
			fmt.Fprintf(&q, " ?v%d <http://example.org/born> ?v%d .", i, i+1)
		}
		q.WriteString(" }")
		resp, err := http.Get(srv.URL + "?query=" + url.QueryEscape(q.String()) + "&explain=1")
		if err != nil {
			t.Fatal(err)
		}
		var rep sparql.PlanReport
		err = json.NewDecoder(resp.Body).Decode(&rep)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%d patterns: status %d, decode: %v", patterns, resp.StatusCode, err)
		}
		if rep.Mode != want || len(rep.Patterns) != patterns {
			t.Errorf("%d patterns: mode = %q over %d patterns, want %q", patterns, rep.Mode, len(rep.Patterns), want)
		}
	}
}

// TestServerExplainErrors: a parse error is a 400; an executor without
// Explain support answers 501.
func TestServerExplainErrors(t *testing.T) {
	srv := httptest.NewServer(NewServer(newTestEngine(t)))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "?query=" + url.QueryEscape("SELECT WHERE {") + "&explain=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("parse error status = %d, want 400", resp.StatusCode)
	}

	plain := httptest.NewServer(NewServer(ExecutorFunc(func(ctx context.Context, src string) (*sparql.Result, error) {
		return &sparql.Result{}, nil
	})))
	defer plain.Close()
	resp, err = http.Get(plain.URL + "?query=" + url.QueryEscape("SELECT * WHERE { ?s ?p ?o . }") + "&explain=1")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Errorf("non-explainer status = %d, want 501 (%s)", resp.StatusCode, strings.TrimSpace(string(body)))
	}
}
