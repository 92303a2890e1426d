package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"elinda"
	"elinda/internal/core"
	"elinda/internal/endpoint"
	"elinda/internal/proxy"
	"elinda/internal/rdf"
	"elinda/internal/sparql"
	"elinda/internal/store"
	"elinda/internal/wal"
)

// TestInsertDurableBeforeAck is the kill -9 demo as a test: triples
// acknowledged by an INSERT DATA on POST /sparql against a WAL-attached
// store must be fully recoverable from the log alone — no shutdown, no
// snapshot save.
func TestInsertDurableBeforeAck(t *testing.T) {
	walDir := t.TempDir()
	w, err := wal.Open(walDir, wal.Options{Policy: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	st := store.New(0)
	st.AttachWAL(w)
	sys := elinda.NewSystemFromStore(st, proxy.Options{})
	srv := httptest.NewServer(sys.Endpoint())
	defer srv.Close()

	resp, err := http.Post(srv.URL, endpoint.UpdateContentType, strings.NewReader(`INSERT DATA {
  <http://x/a> <http://x/p> <http://x/b> .
  <http://x/a> <http://x/p> "lit" .
  <http://x/c> <http://x/p> <http://x/d> .
}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ack endpoint.UpdateStats
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || ack.Inserted != 3 {
		t.Fatalf("update = %d %+v", resp.StatusCode, ack)
	}
	// Simulated kill -9: never Close the WAL, just reopen the directory
	// and replay into a fresh store, exactly like the boot sequence.
	w2, err := wal.Open(walDir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	recovered := store.New(0)
	n, err := w2.ReplayOps(func(op rdf.TripleOp) error {
		_, err := recovered.Apply(store.DeltaOf(op))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 || recovered.Len() != 3 {
		t.Fatalf("recovered %d records, store has %d triples, want 3", n, recovered.Len())
	}
}

// TestHealthz pins the liveness line and that producing it does not walk
// the store: a stats walk builds per-class maps, so its allocations grow
// with the store (about +45 from 300 to 3000 classes); the probe's may
// not, beyond the noise of the recorder and the race detector.
func TestHealthz(t *testing.T) {
	probe := func(n int) float64 {
		st := store.New(0)
		for i := 0; i < n; i++ {
			// One class per subject.
			st.Add(rdf.Triple{S: rdf.NewIRI(fmt.Sprintf("http://x/s%d", i)), P: rdf.TypeIRI, O: rdf.NewIRI(fmt.Sprintf("http://x/C%d", i))})
		}
		h := healthz(st)
		rec := httptest.NewRecorder()
		h(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
		want := fmt.Sprintf("ok triples=%d generation=%d\n", n, st.Generation())
		if rec.Code != http.StatusOK || rec.Body.String() != want {
			t.Fatalf("healthz = %d %q, want 200 %q", rec.Code, rec.Body.String(), want)
		}
		return testing.AllocsPerRun(20, func() {
			h(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/healthz", nil))
		})
	}
	if small, large := probe(300), probe(3000); large > small+8 {
		t.Errorf("healthz allocations grow with the store (%v at 300 triples, %v at 3000): it must not scan", small, large)
	}
}

// TestAPIInsertGone: the deprecated N-Triples alias is removed; writes go
// through POST /sparql.
func TestAPIInsertGone(t *testing.T) {
	srv := testServer(t)
	resp, err := http.Post(srv.URL+"/api/insert", "application/n-triples", strings.NewReader("<http://x/s> <http://x/p> <http://x/o> .\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("POST /api/insert = %d, want 404", resp.StatusCode)
	}
}

func TestSweepStaleTemp(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, "kb.snap.tmp")
	keepSnap := filepath.Join(dir, "kb.snap")
	for _, p := range []string{stale, keepSnap} {
		if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Duplicate and empty path arguments are tolerated; missing
	// directories are not an error.
	sweepStaleTemp(keepSnap, keepSnap, "", filepath.Join(dir, "nosuch", "kb.snap"))
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Errorf("stale temp file survived the sweep: %v", err)
	}
	if _, err := os.Stat(keepSnap); err != nil {
		t.Errorf("real snapshot was swept: %v", err)
	}
}

// TestWriterMetricsCountPanics: a handler panic in the server
// costs that request a 500 and shows up as panics_total in /metrics, next
// to the server, proxy, store and (with a WAL attached) wal sections.
func TestWriterMetricsCountPanics(t *testing.T) {
	w, err := wal.Open(t.TempDir(), wal.Options{Policy: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	st := store.New(0)
	st.AttachWAL(w)
	boom := endpoint.ExecutorFunc(func(ctx context.Context, src string) (*sparql.Result, error) { panic("kaboom") })
	sys := &elinda.System{Store: st, Explorer: core.NewExplorer(st)}
	sys.Proxy = proxy.NewWithBackend(st, boom, proxy.Options{DisableDecomposer: true})
	var ready endpoint.Readiness
	srv := httptest.NewServer(writerHandler(sys, sys.Endpoint(), &ready, w))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/sparql?query=" + url.QueryEscape("SELECT ?s WHERE { ?s ?p ?o . }"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking backend answered %d, want 500", resp.StatusCode)
	}
	var doc map[string]json.RawMessage
	if code := getJSON(t, srv, "/metrics", &doc); code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	if got := string(doc["panics_total"]); got != "1" {
		t.Errorf("panics_total = %s, want 1", got)
	}
	for _, section := range []string{"server", "proxy", "store", "wal"} {
		if _, ok := doc[section]; !ok {
			t.Errorf("metrics document has no %q section: %v", section, doc)
		}
	}
}
