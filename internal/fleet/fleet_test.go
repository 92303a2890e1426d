package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"elinda/internal/endpoint"
	"elinda/internal/netsim"
	"elinda/internal/proxy"
	"elinda/internal/rdf"
	"elinda/internal/sparql"
	"elinda/internal/store"
	"elinda/internal/wal"
)

func ex(s string) rdf.Term { return rdf.NewIRI("http://example.org/" + s) }

func seedStore(t *testing.T) *store.Store {
	t.Helper()
	st := store.New(64)
	_, err := st.Load([]rdf.Triple{
		{S: ex("plato"), P: rdf.TypeIRI, O: ex("Philosopher")},
		{S: ex("aristotle"), P: rdf.TypeIRI, O: ex("Philosopher")},
		{S: ex("plato"), P: ex("born"), O: rdf.NewTypedLiteral("-427", rdf.XSDInteger)},
		{S: ex("work1"), P: ex("author"), O: ex("plato")},
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

const philosophersQuery = `SELECT ?s WHERE { ?s a <http://example.org/Philosopher> . }`

// startCoordinator serves a coordinator for st over httptest.
func startCoordinator(t *testing.T, st *store.Store) (*Coordinator, *httptest.Server) {
	t.Helper()
	c := NewCoordinator(st)
	mux := http.NewServeMux()
	c.Register(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return c, srv
}

func getBody(t *testing.T, rawURL string) (int, string) {
	t.Helper()
	resp, err := http.Get(rawURL)
	if err != nil {
		t.Fatalf("GET %s: %v", rawURL, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", rawURL, err)
	}
	return resp.StatusCode, string(b)
}

func sparqlURL(base, query string) string {
	return base + "/sparql?query=" + url.QueryEscape(query)
}

func TestReplicaHydratesAndServesIdenticalResults(t *testing.T) {
	st := seedStore(t)
	_, coord := startCoordinator(t, st)

	r := NewReplica(ReplicaOptions{CoordinatorURL: coord.URL, Dir: t.TempDir()})
	promoted, err := r.SyncOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !promoted {
		t.Fatal("first SyncOnce did not promote")
	}
	if !r.IsReady() {
		t.Fatal("replica not ready after promotion")
	}
	if r.Generation() != st.Snapshot().Generation() {
		t.Fatalf("generation = %d, want %d", r.Generation(), st.Snapshot().Generation())
	}

	rep := httptest.NewServer(r.Handler())
	defer rep.Close()
	oracle := httptest.NewServer(endpoint.NewServer(proxy.New(st, proxy.Options{})))
	defer oracle.Close()

	status, got := getBody(t, sparqlURL(rep.URL, philosophersQuery))
	if status != http.StatusOK {
		t.Fatalf("replica status = %d: %s", status, got)
	}
	_, want := getBody(t, sparqlURL(oracle.URL, philosophersQuery))
	if got != want {
		t.Errorf("replica result diverges from oracle:\n got: %s\nwant: %s", got, want)
	}

	// A second sync at the same generation is a no-op.
	promoted, err = r.SyncOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if promoted {
		t.Error("SyncOnce promoted without a new generation")
	}
}

func TestReplicaReadyzPhaseTransitions(t *testing.T) {
	st := seedStore(t)
	_, coord := startCoordinator(t, st)

	// A colocated WAL holding one record past the snapshot.
	walDir := t.TempDir()
	w, err := wal.Open(walDir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.ReplayOps(func(rdf.TripleOp) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendOps([]rdf.TripleOp{rdf.Insert(rdf.Triple{S: ex("socrates"), P: rdf.TypeIRI, O: ex("Philosopher")})}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r := NewReplica(ReplicaOptions{
		CoordinatorURL: coord.URL,
		Dir:            t.TempDir(),
		WALDir:         walDir,
		Warm:           true,
	})
	var mu sync.Mutex
	var phases []string
	r.phaseHook = func(p string) {
		mu.Lock()
		phases = append(phases, p)
		mu.Unlock()
	}
	rep := httptest.NewServer(r.Handler())
	defer rep.Close()

	// Before hydration the probe names the phase it is stuck in.
	status, body := getBody(t, rep.URL+"/readyz")
	if status != http.StatusServiceUnavailable || !strings.Contains(body, "snapshot-fetch") {
		t.Fatalf("pre-hydration readyz = %d %q, want 503 naming snapshot-fetch", status, body)
	}

	if _, err := r.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	got := strings.Join(phases, ",")
	mu.Unlock()
	want := "snapshot-fetch,wal-replay,warming,serving"
	if got != want {
		t.Errorf("phase sequence = %s, want %s", got, want)
	}

	status, body = getBody(t, rep.URL+"/readyz")
	if status != http.StatusOK || !strings.HasPrefix(body, "ready generation=") {
		t.Errorf("post-hydration readyz = %d %q", status, body)
	}

	// The WAL record beyond the snapshot is visible in results.
	status, body = getBody(t, sparqlURL(rep.URL, philosophersQuery))
	if status != http.StatusOK || !strings.Contains(body, "socrates") {
		t.Errorf("replayed record not served: %d %s", status, body)
	}
}

func TestReplicaDrainWindow(t *testing.T) {
	st := seedStore(t)
	_, coord := startCoordinator(t, st)
	r := NewReplica(ReplicaOptions{CoordinatorURL: coord.URL, Dir: t.TempDir()})
	if _, err := r.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	rep := httptest.NewServer(r.Handler())
	defer rep.Close()

	r.BeginDrain()
	status, body := getBody(t, rep.URL+"/readyz")
	if status != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Fatalf("draining readyz = %d %q, want 503 naming draining", status, body)
	}
	// The 503 window applies to the probe only: queries in the drain
	// window still complete.
	status, _ = getBody(t, sparqlURL(rep.URL, philosophersQuery))
	if status != http.StatusOK {
		t.Errorf("query during drain = %d, want 200", status)
	}
}

func TestReplicaResumesTruncatedFetch(t *testing.T) {
	st := seedStore(t)
	_, coord := startCoordinator(t, st)
	tr := netsim.New(nil)
	r := NewReplica(ReplicaOptions{CoordinatorURL: coord.URL, Dir: t.TempDir(), Transport: tr})

	// Op 0 is the manifest fetch, op 1 the snapshot transfer: cut the
	// transfer after 100 bytes. The next round must resume at byte 100,
	// not start over.
	tr.InjectOp(tr.Ops()+1, netsim.Rule{Fault: netsim.FaultTruncate, After: 100})
	promoted, err := r.SyncOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !promoted {
		t.Fatal("not promoted")
	}
	m := r.MetricsSnapshot()
	if m.ResumedBytes != 100 {
		t.Errorf("resumed bytes = %d, want 100", m.ResumedBytes)
	}
	if m.FetchRounds < 2 {
		t.Errorf("fetch rounds = %d, want >= 2", m.FetchRounds)
	}
}

func TestReplicaRejectsCorruptTransfer(t *testing.T) {
	st := seedStore(t)
	_, coord := startCoordinator(t, st)
	dir := t.TempDir()
	r := NewReplica(ReplicaOptions{CoordinatorURL: coord.URL, Dir: dir})

	m, err := r.manifest(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Plant a full-size garbage partial: the CRC check must throw it
	// away and re-fetch rather than install it.
	garbage := make([]byte, m.Size)
	for i := range garbage {
		garbage[i] = 0xAB
	}
	part := filepath.Join(dir, snapshotName(m.Generation)+".partial")
	if err := os.WriteFile(part, garbage, 0o644); err != nil {
		t.Fatal(err)
	}
	promoted, err := r.SyncOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !promoted {
		t.Fatal("not promoted")
	}
	if got := r.MetricsSnapshot().FetchRounds; got < 2 {
		t.Errorf("fetch rounds = %d, want >= 2 (CRC reject + clean refetch)", got)
	}
}

func TestCoordinatorRefusesStaleGeneration(t *testing.T) {
	st := seedStore(t)
	c, coord := startCoordinator(t, st)
	gen, _, _, err := c.publish()
	if err != nil {
		t.Fatal(err)
	}
	status, _ := getBody(t, fmt.Sprintf("%s/fleet/snapshot/%d", coord.URL, gen))
	if status != http.StatusOK {
		t.Fatalf("current generation = %d, want 200", status)
	}
	// Advance the store: the old generation's bytes are gone.
	if _, err := st.Add(rdf.Triple{S: ex("zeno"), P: rdf.TypeIRI, O: ex("Philosopher")}); err != nil {
		t.Fatal(err)
	}
	status, body := getBody(t, fmt.Sprintf("%s/fleet/snapshot/%d", coord.URL, gen))
	if status != http.StatusNotFound {
		t.Fatalf("stale generation = %d %q, want 404", status, body)
	}
}

func TestReplicaFollowsGenerations(t *testing.T) {
	st := seedStore(t)
	_, coord := startCoordinator(t, st)
	dir := t.TempDir()
	r := NewReplica(ReplicaOptions{CoordinatorURL: coord.URL, Dir: dir})
	if _, err := r.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	gen1 := r.Generation()

	if _, err := st.Add(rdf.Triple{S: ex("zeno"), P: rdf.TypeIRI, O: ex("Philosopher")}); err != nil {
		t.Fatal(err)
	}
	promoted, err := r.SyncOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !promoted || r.Generation() <= gen1 {
		t.Fatalf("promoted=%v generation=%d, want promotion past %d", promoted, r.Generation(), gen1)
	}

	rep := httptest.NewServer(r.Handler())
	defer rep.Close()
	status, body := getBody(t, sparqlURL(rep.URL, philosophersQuery))
	if status != http.StatusOK || !strings.Contains(body, "zeno") {
		t.Errorf("new generation not served: %d %s", status, body)
	}

	// The superseded snapshot file is garbage-collected.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var snaps []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".elindsn") {
			snaps = append(snaps, e.Name())
		}
	}
	if len(snaps) != 1 || snaps[0] != snapshotName(r.Generation()) {
		t.Errorf("snapshot dir after promotion = %v, want only %s", snaps, snapshotName(r.Generation()))
	}
}

// TestReplicaHydrationSurvivesCoordinatorOutage: a refused manifest
// fetch is an error, not a crash, and a later sync succeeds.
func TestReplicaHydrationSurvivesCoordinatorOutage(t *testing.T) {
	st := seedStore(t)
	_, coord := startCoordinator(t, st)
	tr := netsim.New(nil)
	r := NewReplica(ReplicaOptions{CoordinatorURL: coord.URL, Dir: t.TempDir(), Transport: tr})

	u, _ := url.Parse(coord.URL)
	tr.Kill(u.Host)
	if _, err := r.SyncOnce(context.Background()); err == nil {
		t.Fatal("sync against killed coordinator succeeded")
	}
	if r.IsReady() {
		t.Fatal("replica ready without data")
	}
	tr.Restart(u.Host)
	promoted, err := r.SyncOnce(context.Background())
	if err != nil || !promoted {
		t.Fatalf("post-restart sync: promoted=%v err=%v", promoted, err)
	}
	if got := r.MetricsSnapshot().SyncErrors; got != 1 {
		t.Errorf("sync errors = %d, want 1", got)
	}
}

// TestReplicaMetricsCountPanics: a handler panic under the replica role
// costs that request a 500 and shows up as panics_total in the replica's
// own /metrics document, next to the sections it always had.
func TestReplicaMetricsCountPanics(t *testing.T) {
	st := seedStore(t)
	boom := endpoint.ExecutorFunc(func(ctx context.Context, src string) (*sparql.Result, error) { panic("kaboom") })
	px := proxy.NewWithBackend(st, boom, proxy.Options{DisableDecomposer: true})
	r := NewReplica(ReplicaOptions{CoordinatorURL: "http://unused.invalid", Dir: t.TempDir()})
	r.cur.Store(&replicaState{st: st, px: px, srv: endpoint.NewServer(px), gen: st.Generation()})
	rep := httptest.NewServer(r.Handler())
	defer rep.Close()

	if status, body := getBody(t, sparqlURL(rep.URL, philosophersQuery)); status != http.StatusInternalServerError {
		t.Fatalf("panicking backend answered %d %q, want 500", status, body)
	}
	_, body := getBody(t, rep.URL+"/metrics")
	var doc map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("metrics document: %v\n%s", err, body)
	}
	if got := string(doc["panics_total"]); got != "1" {
		t.Errorf("panics_total = %s, want 1", got)
	}
	for _, section := range []string{"replica", "server", "proxy", "store"} {
		if _, ok := doc[section]; !ok {
			t.Errorf("metrics document lost its %q section:\n%s", section, body)
		}
	}
}
