package endpoint

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"elinda/internal/metrics"
)

func TestRecoverPanics(t *testing.T) {
	var panics metrics.Counter
	var logged []string
	h := RecoverPanics(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/boom" {
			panic("kaboom")
		}
		w.Write([]byte("fine"))
	}), &panics, func(format string, args ...any) {
		logged = append(logged, fmt.Sprintf(format, args...))
	})

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/boom", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler answered %d, want 500", rec.Code)
	}
	if panics.Value() != 1 {
		t.Fatalf("panics_total = %d, want 1", panics.Value())
	}
	if len(logged) != 1 || !strings.Contains(logged[0], "kaboom") || !strings.Contains(logged[0], "goroutine") {
		t.Fatalf("panic log missing message or stack: %q", logged)
	}

	// The wrapper is transparent for healthy handlers.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/ok", nil))
	if rec.Code != http.StatusOK || rec.Body.String() != "fine" {
		t.Fatalf("healthy handler: %d %q", rec.Code, rec.Body.String())
	}
	if panics.Value() != 1 {
		t.Fatalf("healthy request bumped panics_total to %d", panics.Value())
	}
}

func TestRecoverPanicsAbortHandlerPassesThrough(t *testing.T) {
	h := RecoverPanics(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic(http.ErrAbortHandler)
	}), nil, nil)
	defer func() {
		if recover() != http.ErrAbortHandler {
			t.Fatal("http.ErrAbortHandler was swallowed")
		}
	}()
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/", nil))
}

func TestReadiness(t *testing.T) {
	var r Readiness
	probe := func() (int, string) {
		rec := httptest.NewRecorder()
		r.ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
		return rec.Code, rec.Body.String()
	}
	if code, body := probe(); code != http.StatusServiceUnavailable || body != "not ready\n" {
		t.Fatalf("zero-value probe: %d %q", code, body)
	}
	r.Set("wal-replay")
	if code, body := probe(); code != http.StatusServiceUnavailable || body != "not ready: wal-replay\n" {
		t.Fatalf("during replay: %d %q", code, body)
	}
	r.Ready()
	if code, body := probe(); code != http.StatusOK || body != "ready\n" {
		t.Fatalf("ready probe: %d %q", code, body)
	}
	r.Set("draining")
	if code, body := probe(); code != http.StatusServiceUnavailable || body != "not ready: draining\n" {
		t.Fatalf("during drain: %d %q", code, body)
	}
}
