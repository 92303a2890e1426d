package endpoint

import (
	"encoding/json"
	"net/http"
	"runtime/debug"
	"sync/atomic"

	"elinda/internal/metrics"
)

// RecoverPanics wraps next so a panicking handler costs one request, not
// the process: the panic is counted, logged with its stack, and answered
// with a 500 (when nothing was written yet). http.ErrAbortHandler is
// re-panicked — it is net/http's own sanctioned way to abort a response
// and must keep its semantics.
func RecoverPanics(next http.Handler, panics *metrics.Counter, logf func(format string, args ...any)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if rec == http.ErrAbortHandler {
				panic(rec)
			}
			if panics != nil {
				panics.Inc()
			}
			if logf != nil {
				logf("panic serving %s %s: %v\n%s", r.Method, r.URL.Path, rec, debug.Stack())
			}
			// Best effort: if the handler already wrote a header this is a
			// no-op superfluous-WriteHeader, which net/http just logs.
			w.WriteHeader(http.StatusInternalServerError)
		}()
		next.ServeHTTP(w, r)
	})
}

// Ops finishes the server's HTTP surface. It mounts /metrics on mux —
// the sections fill adds, plus panics_total — and returns mux behind
// RecoverPanics counting into that same field, so no handler can recover
// panics into a counter the document does not show.
func Ops(mux *http.ServeMux, logf func(format string, args ...any), fill func(doc map[string]any)) http.Handler {
	panics := new(metrics.Counter)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		doc := map[string]any{"panics_total": panics.Value()}
		fill(doc)
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		// The sections are counters and strings, so Encode can only fail
		// on the write: the client has gone and nobody is left to tell.
		_ = enc.Encode(doc)
	})
	return RecoverPanics(mux, panics, logf)
}

// Readiness is the /readyz probe state: distinct from liveness, it
// answers 503 while the process is loading, replaying its WAL, or
// draining for shutdown — exactly the windows a load balancer must route
// around even though the process is alive. The zero value is not ready
// with an empty phase.
type Readiness struct {
	phase atomic.Pointer[string]
	ready atomic.Bool
}

// Set marks the server not ready and records the phase name the probe
// reports (e.g. "loading", "wal-replay", "draining").
func (r *Readiness) Set(phase string) {
	r.phase.Store(&phase)
	r.ready.Store(false)
}

// Ready marks the server ready to serve.
func (r *Readiness) Ready() {
	r.ready.Store(true)
}

// ServeHTTP answers 200 "ready" or 503 "not ready: <phase>".
func (r *Readiness) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	if r.ready.Load() {
		w.Write([]byte("ready\n"))
		return
	}
	phase := ""
	if p := r.phase.Load(); p != nil {
		phase = *p
	}
	w.WriteHeader(http.StatusServiceUnavailable)
	if phase == "" {
		w.Write([]byte("not ready\n"))
		return
	}
	w.Write([]byte("not ready: " + phase + "\n"))
}
