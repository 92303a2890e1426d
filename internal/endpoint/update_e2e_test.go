package endpoint_test

// End-to-end update-protocol tests over the real stack (server → proxy
// → store). These live in an external test package because proxy itself
// imports endpoint.

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"elinda/internal/endpoint"
	"elinda/internal/proxy"
	"elinda/internal/rdf"
	"elinda/internal/store"
)

func exIRI(s string) rdf.Term { return rdf.NewIRI("http://example.org/" + s) }

func updateServer(t *testing.T, triples []rdf.Triple) (*httptest.Server, *store.Store) {
	t.Helper()
	st := store.New(len(triples))
	if len(triples) > 0 {
		if _, err := st.Load(triples); err != nil {
			t.Fatal(err)
		}
	}
	px := proxy.New(st, proxy.Options{})
	s := endpoint.NewServer(px)
	s.Updater = px
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)
	return srv, st
}

func TestUpdateParseErrorIs400(t *testing.T) {
	srv, _ := updateServer(t, nil)
	resp, err := http.Post(srv.URL, endpoint.UpdateContentType, strings.NewReader(`INSERT GARBAGE`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}

// TestUpdateEndToEnd checks a multi-op request mutates the store
// atomically and the query side sees the new state immediately.
func TestUpdateEndToEnd(t *testing.T) {
	srv, st := updateServer(t, []rdf.Triple{
		{S: exIRI("plato"), P: exIRI("influencedBy"), O: exIRI("socrates")},
		{S: exIRI("kant"), P: exIRI("influencedBy"), O: exIRI("hume")},
	})

	resp, err := http.Post(srv.URL, endpoint.UpdateContentType, strings.NewReader(`PREFIX ex: <http://example.org/>
DELETE WHERE { ex:kant ex:influencedBy ?o } ;
INSERT DATA { ex:hegel ex:influencedBy ex:kant }`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var stats endpoint.UpdateStats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Inserted != 1 || stats.Deleted != 1 {
		t.Fatalf("ack = %+v", stats)
	}
	if stats.Generation != st.Generation() {
		t.Fatalf("ack generation %d, store at %d", stats.Generation, st.Generation())
	}
	if st.Snapshot().ContainsTriple(rdf.Triple{S: exIRI("kant"), P: exIRI("influencedBy"), O: exIRI("hume")}) {
		t.Fatal("DELETE WHERE target survived")
	}
	if !st.Snapshot().ContainsTriple(rdf.Triple{S: exIRI("hegel"), P: exIRI("influencedBy"), O: exIRI("kant")}) {
		t.Fatal("INSERT DATA triple missing")
	}

	qresp, err := http.Get(srv.URL + "?query=" + url.QueryEscape(`PREFIX ex: <http://example.org/>
SELECT ?s WHERE { ?s ex:influencedBy ex:kant }`))
	if err != nil {
		t.Fatal(err)
	}
	defer qresp.Body.Close()
	var doc struct {
		Results struct {
			Bindings []map[string]struct{ Value string } `json:"bindings"`
		} `json:"results"`
	}
	if err := json.NewDecoder(qresp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Results.Bindings) != 1 || doc.Results.Bindings[0]["s"].Value != "http://example.org/hegel" {
		t.Fatalf("query after update: %+v", doc.Results)
	}
}

// TestUpdateRemoteBackendIs501: a proxy fronting a remote backend owns
// no data; its ErrNoUpdate must surface as 501, exactly like a server
// with no Updater at all.
func TestUpdateRemoteBackendIs501(t *testing.T) {
	st := store.New(0)
	backend := endpoint.NewServer(proxy.New(st, proxy.Options{}))
	remote := httptest.NewServer(backend)
	t.Cleanup(remote.Close)

	px := proxy.NewWithBackend(st, endpoint.NewClient(remote.URL), proxy.Options{})
	s := endpoint.NewServer(px)
	s.Updater = px
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)

	resp, err := http.Post(srv.URL, endpoint.UpdateContentType,
		strings.NewReader(`INSERT DATA { <http://x/s> <http://x/p> <http://x/o> }`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("status = %d, want 501", resp.StatusCode)
	}
}

// TestUpdateNoOpAcksZero: an update whose ops are all ineffective acks
// with zero counts and an unchanged generation.
func TestUpdateNoOpAcksZero(t *testing.T) {
	srv, st := updateServer(t, []rdf.Triple{
		{S: exIRI("a"), P: exIRI("p"), O: exIRI("b")},
	})
	gen := st.Generation()
	resp, err := http.Post(srv.URL, endpoint.UpdateContentType, strings.NewReader(`PREFIX ex: <http://example.org/>
INSERT DATA { ex:a ex:p ex:b }`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats endpoint.UpdateStats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Inserted != 0 || stats.Deleted != 0 || stats.Generation != gen {
		t.Fatalf("no-op ack = %+v, generation %d", stats, gen)
	}
}
