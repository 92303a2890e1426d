package router

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"elinda/internal/endpoint"
	"elinda/internal/hvs"
)

// fake is a scriptable replica: /readyz reports the configured
// readiness and generation, /sparql runs the swappable handler.
type fake struct {
	name string
	srv  *httptest.Server

	mu      sync.Mutex
	ready   bool
	gen     uint64
	handler http.HandlerFunc

	sparqlHits atomic.Int64
}

func newFake(t *testing.T, name string, gen uint64) *fake {
	t.Helper()
	f := &fake{name: name, ready: true, gen: gen}
	f.handler = f.okHandler
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		ready, gen := f.ready, f.gen
		f.mu.Unlock()
		if !ready {
			http.Error(w, "not ready: draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintf(w, "ready generation=%d\n", gen)
	})
	mux.HandleFunc("/sparql", func(w http.ResponseWriter, r *http.Request) {
		f.sparqlHits.Add(1)
		f.mu.Lock()
		h := f.handler
		f.mu.Unlock()
		h(w, r)
	})
	f.srv = httptest.NewServer(mux)
	t.Cleanup(f.srv.Close)
	return f
}

func (f *fake) okHandler(w http.ResponseWriter, r *http.Request) {
	fmt.Fprintf(w, "result-from-%s", f.name)
}

func (f *fake) setHandler(h http.HandlerFunc) {
	f.mu.Lock()
	f.handler = h
	f.mu.Unlock()
}

func (f *fake) setReady(ready bool, gen uint64) {
	f.mu.Lock()
	f.ready = ready
	f.gen = gen
	f.mu.Unlock()
}

func newTestRouter(t *testing.T, mutate func(*Options), fakes ...*fake) *Router {
	t.Helper()
	opts := Options{
		ProbeInterval:  time.Hour, // probes are driven manually
		RequestTimeout: 2 * time.Second,
		BackoffBase:    time.Millisecond,
		BackoffMax:     2 * time.Millisecond,
		DisableHedging: true,
	}
	for _, f := range fakes {
		opts.Replicas = append(opts.Replicas, ReplicaConfig{Name: f.name, BaseURL: f.srv.URL})
	}
	if mutate != nil {
		mutate(&opts)
	}
	rt := New(opts)
	rt.ProbeNow(context.Background())
	return rt
}

// pickQuery finds a query whose ring order starts at the wanted member
// index, so tests can pin which replica is "home".
func pickQuery(t *testing.T, rt *Router, first int) string {
	t.Helper()
	for i := 0; i < 512; i++ {
		q := fmt.Sprintf("SELECT ?s WHERE { ?s ?p \"v%d\" . }", i)
		if rt.ring.order(hvs.Normalize(q))[0] == first {
			return q
		}
	}
	t.Fatal("no query hashes to the wanted replica")
	return ""
}

func routedGet(t *testing.T, rt *Router, query string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/sparql?query="+url.QueryEscape(query), nil)
	w := httptest.NewRecorder()
	rt.ServeHTTP(w, req)
	return w
}

func TestRingStableAndComplete(t *testing.T) {
	r := newRing(3, 64, func(i int) string { return fmt.Sprintf("replica-%d", i) })
	a := r.order("q1")
	b := r.order("q1")
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("order not stable: %v vs %v", a, b)
	}
	if len(a) != 3 {
		t.Fatalf("order covers %d replicas, want 3", len(a))
	}
	seen := map[int]bool{}
	for _, i := range a {
		seen[i] = true
	}
	if len(seen) != 3 {
		t.Fatalf("order repeats replicas: %v", a)
	}
}

func TestBreakerLifecycle(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	b := newBreaker(BreakerConfig{FailureThreshold: 2, OpenFor: time.Second}, clock)

	if !b.allow() {
		t.Fatal("closed breaker must allow")
	}
	b.failure()
	if b.current() != breakerClosed {
		t.Fatal("one failure must not trip")
	}
	b.failure()
	if b.current() != breakerOpen {
		t.Fatal("threshold failures must trip open")
	}
	if b.allow() {
		t.Fatal("open breaker must reject before OpenFor")
	}
	now = now.Add(2 * time.Second)
	if !b.allow() {
		t.Fatal("elapsed open breaker must admit the half-open trial")
	}
	if b.current() != breakerHalfOpen {
		t.Fatalf("state = %v, want half-open", b.current())
	}
	if b.allow() {
		t.Fatal("half-open must admit exactly one trial")
	}
	b.failure()
	if b.current() != breakerOpen {
		t.Fatal("failed trial must re-open")
	}
	now = now.Add(2 * time.Second)
	if !b.allow() {
		t.Fatal("second trial")
	}
	b.success()
	if b.current() != breakerClosed || !b.allow() {
		t.Fatal("successful trial must close")
	}
	if b.openCount() != 2 {
		t.Errorf("opens = %d, want 2", b.openCount())
	}
}

func TestGenerationGatedRouting(t *testing.T) {
	fresh := newFake(t, "fresh", 7)
	stale := newFake(t, "stale", 3)
	rt := newTestRouter(t, nil, fresh, stale)

	for i := 0; i < 8; i++ {
		q := fmt.Sprintf("SELECT ?s WHERE { ?s ?p \"g%d\" . }", i)
		w := routedGet(t, rt, q)
		if w.Code != http.StatusOK {
			t.Fatalf("query %d: status %d", i, w.Code)
		}
		if got := w.Header().Get("X-Elinda-Replica"); got != "fresh" {
			t.Fatalf("query %d served by %q, want the fresh-generation replica", i, got)
		}
		if w.Header().Get(StalenessHeader) != "" {
			t.Fatalf("fresh response carries staleness header")
		}
	}
	if n := stale.sparqlHits.Load(); n != 0 {
		t.Errorf("stale-generation replica received %d queries, want 0", n)
	}
}

func TestRetryFailsOverToNextReplica(t *testing.T) {
	a := newFake(t, "a", 1)
	b := newFake(t, "b", 1)
	rt := newTestRouter(t, nil, a, b)
	a.setHandler(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	})

	q := pickQuery(t, rt, 0) // home replica is the broken one
	w := routedGet(t, rt, q)
	if w.Code != http.StatusOK || w.Body.String() != "result-from-b" {
		t.Fatalf("response = %d %q, want b's result", w.Code, w.Body.String())
	}
	m := rt.MetricsSnapshot()
	if m.Retries == 0 {
		t.Error("no retry counted")
	}
	if m.Replicas[0].Failures == 0 {
		t.Error("no failure attributed to replica a")
	}
}

func TestBreakerOpensThenProbeRecovers(t *testing.T) {
	a := newFake(t, "a", 1)
	b := newFake(t, "b", 1)
	rt := newTestRouter(t, func(o *Options) {
		o.Breaker = BreakerConfig{FailureThreshold: 2, OpenFor: time.Hour}
	}, a, b)
	a.setHandler(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	})

	q := pickQuery(t, rt, 0)
	for i := 0; i < 3; i++ {
		if w := routedGet(t, rt, q); w.Code != http.StatusOK {
			t.Fatalf("query %d: status %d", i, w.Code)
		}
	}
	if st := rt.members[0].br.current(); st != breakerOpen {
		t.Fatalf("breaker = %v, want open after repeated failures", st)
	}
	hitsWhileOpen := a.sparqlHits.Load()
	if w := routedGet(t, rt, q); w.Code != http.StatusOK {
		t.Fatal("query with open breaker failed")
	}
	if a.sparqlHits.Load() != hitsWhileOpen {
		t.Error("open breaker still admitted traffic")
	}

	// Replica heals; an active probe outranks the passive failure count
	// and closes the breaker without waiting out OpenFor.
	a.setHandler(a.okHandler)
	rt.ProbeNow(context.Background())
	if st := rt.members[0].br.current(); st != breakerClosed {
		t.Fatalf("breaker = %v after healthy probe, want closed", st)
	}
	if w := routedGet(t, rt, q); w.Header().Get("X-Elinda-Replica") != "a" {
		t.Errorf("healed replica not serving again (served by %q)", w.Header().Get("X-Elinda-Replica"))
	}
}

func TestHedgeWinsOverSlowPrimary(t *testing.T) {
	slow := newFake(t, "slow", 1)
	fast := newFake(t, "fast", 1)
	rt := newTestRouter(t, func(o *Options) {
		o.DisableHedging = false
		o.HedgeDelay = 5 * time.Millisecond
	}, slow, fast)
	release := make(chan struct{})
	defer close(release)
	slow.setHandler(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
			return
		}
		fmt.Fprint(w, "result-from-slow")
	})

	q := pickQuery(t, rt, 0)
	w := routedGet(t, rt, q)
	if w.Code != http.StatusOK || w.Body.String() != "result-from-fast" {
		t.Fatalf("response = %d %q, want the hedge's result", w.Code, w.Body.String())
	}
	m := rt.MetricsSnapshot()
	if m.Hedges == 0 || m.HedgeWins == 0 {
		t.Errorf("hedges=%d hedgeWins=%d, want both > 0", m.Hedges, m.HedgeWins)
	}
}

func TestRelays429WithRetryAfter(t *testing.T) {
	a := newFake(t, "a", 1)
	b := newFake(t, "b", 1)
	shed := func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "0")
		http.Error(w, "saturated", http.StatusTooManyRequests)
	}
	a.setHandler(shed)
	b.setHandler(shed)
	rt := newTestRouter(t, nil, a, b)

	w := routedGet(t, rt, pickQuery(t, rt, 0))
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 relayed", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("Retry-After not relayed")
	}
	m := rt.MetricsSnapshot()
	if m.Shed429 < 2 {
		t.Errorf("shed429 = %d, want >= 2 (both replicas tried)", m.Shed429)
	}
	if m.Unavailable503 != 0 {
		t.Errorf("overload escalated to 503, want 429 relay")
	}
}

func TestTruncatedStreamNotRelayedAsSuccess(t *testing.T) {
	cut := newFake(t, "cut", 1)
	good := newFake(t, "good", 1)
	rt := newTestRouter(t, nil, cut, good)
	cut.setHandler(func(w http.ResponseWriter, r *http.Request) {
		// A streaming response that dies mid-body: trailer announced,
		// bytes flushed, completeness never set — exactly what the
		// endpoint's Abort path produces on the wire.
		w.Header().Set("Trailer", endpoint.CompleteTrailer)
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, `{"head":{"vars":["s"]},"results":{"bindings":[`)
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
	})

	q := pickQuery(t, rt, 0)
	w := routedGet(t, rt, q)
	if w.Code != http.StatusOK || w.Body.String() != "result-from-good" {
		t.Fatalf("response = %d %q, want retry to the good replica", w.Code, w.Body.String())
	}
	if m := rt.MetricsSnapshot(); m.Truncations == 0 {
		t.Error("truncation not detected")
	}
}

func TestReplicaFlapsReadinessMidQuery(t *testing.T) {
	flappy := newFake(t, "flappy", 1)
	steady := newFake(t, "steady", 1)
	rt := newTestRouter(t, nil, flappy, steady)

	// The router probed flappy as ready; it flips to draining before the
	// next probe, so the in-flight query hits a 503.
	flappy.setReady(false, 1)
	flappy.setHandler(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "not ready: draining", http.StatusServiceUnavailable)
	})

	q := pickQuery(t, rt, 0)
	w := routedGet(t, rt, q)
	if w.Code != http.StatusOK || w.Body.String() != "result-from-steady" {
		t.Fatalf("response = %d %q, want the steady replica to absorb the flap", w.Code, w.Body.String())
	}

	// The next probe round notices; the flapping replica leaves the pool
	// entirely instead of eating a failed attempt per query.
	rt.ProbeNow(context.Background())
	hits := flappy.sparqlHits.Load()
	if w := routedGet(t, rt, q); w.Code != http.StatusOK {
		t.Fatal("query after probe failed")
	}
	if flappy.sparqlHits.Load() != hits {
		t.Error("unready replica still receiving queries")
	}

	// And when it comes back, it rejoins.
	flappy.setReady(true, 1)
	flappy.setHandler(flappy.okHandler)
	rt.ProbeNow(context.Background())
	if w := routedGet(t, rt, q); w.Header().Get("X-Elinda-Replica") != "flappy" {
		t.Errorf("recovered replica not rejoined (served by %q)", w.Header().Get("X-Elinda-Replica"))
	}
}

func TestScatterToStaleReplica(t *testing.T) {
	fresh := newFake(t, "fresh", 9)
	stale := newFake(t, "stale", 4)
	rt := newTestRouter(t, nil, fresh, stale)
	fresh.setHandler(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	})

	w := routedGet(t, rt, pickQuery(t, rt, 0))
	if w.Code != http.StatusOK || w.Body.String() != "result-from-stale" {
		t.Fatalf("response = %d %q, want stale scatter", w.Code, w.Body.String())
	}
	if w.Header().Get(StalenessHeader) != "replica" {
		t.Errorf("staleness header = %q, want replica", w.Header().Get(StalenessHeader))
	}
	if !strings.Contains(w.Header().Get("Warning"), "stale") {
		t.Errorf("Warning header = %q, want stale marker", w.Header().Get("Warning"))
	}
	if m := rt.MetricsSnapshot(); m.StaleScatters != 1 {
		t.Errorf("scatters = %d, want 1", m.StaleScatters)
	}
}

func TestLocalFallbackWhenFleetIsGone(t *testing.T) {
	a := newFake(t, "a", 1)
	b := newFake(t, "b", 1)
	rt := newTestRouter(t, func(o *Options) {
		o.Fallback = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprint(w, "result-from-local")
		})
	}, a, b)
	a.setReady(false, 0)
	b.setReady(false, 0)
	rt.ProbeNow(context.Background())

	w := routedGet(t, rt, "SELECT ?s WHERE { ?s ?p ?o . }")
	if w.Code != http.StatusOK || w.Body.String() != "result-from-local" {
		t.Fatalf("response = %d %q, want local fallback", w.Code, w.Body.String())
	}
	if w.Header().Get(StalenessHeader) != "local" {
		t.Errorf("staleness header = %q, want local", w.Header().Get(StalenessHeader))
	}
	if m := rt.MetricsSnapshot(); m.LocalFallbacks != 1 {
		t.Errorf("local fallbacks = %d, want 1", m.LocalFallbacks)
	}
}

func TestNoReplicaNoFallbackIs503(t *testing.T) {
	a := newFake(t, "a", 1)
	rt := newTestRouter(t, nil, a)
	a.setReady(false, 0)
	rt.ProbeNow(context.Background())

	w := routedGet(t, rt, "SELECT ?s WHERE { ?s ?p ?o . }")
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
}

// TestRouterMetricsCountPanics: a handler panic under the router role
// costs that request a 500 and shows up as panics_total in the router's
// own /metrics document, next to the router section it always had.
func TestRouterMetricsCountPanics(t *testing.T) {
	a := newFake(t, "a", 1)
	rt := newTestRouter(t, func(o *Options) {
		o.Fallback = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { panic("kaboom") })
	}, a)
	a.setReady(false, 0)
	rt.ProbeNow(context.Background())
	srv := httptest.NewServer(rt.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/sparql?query=" + url.QueryEscape("SELECT ?s WHERE { ?s ?p ?o . }"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking fallback answered %d, want 500", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Panics uint64         `json:"panics_total"`
		Router *RouterMetrics `json:"router"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Panics != 1 {
		t.Errorf("panics_total = %d, want 1", doc.Panics)
	}
	if doc.Router == nil || doc.Router.LocalFallbacks != 1 {
		t.Errorf("router section = %+v, want it present with the fallback counted", doc.Router)
	}
}
