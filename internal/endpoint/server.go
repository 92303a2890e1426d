package endpoint

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"mime"
	"net/http"
	"strconv"
	"time"

	"elinda/internal/metrics"
	"elinda/internal/sparql"
	"elinda/internal/store"
)

// ContentType is the media type of SPARQL JSON results.
const ContentType = "application/sparql-results+json"

// CompleteTrailer is the HTTP trailer a chunked response (a body larger
// than BodyBytes) carries when the result document was fully written.
// Chunked transfer encoding ends a cut answer with perfectly clean
// framing — the body is syntactically truncated but the HTTP layer looks
// complete — so a client or relaying proxy cannot rely on framing alone.
// The trailer is the explicit completeness signal: absent means the
// answer was cut, and the reader must treat the response as failed
// rather than take half a body as success.
const CompleteTrailer = "X-Elinda-Complete"

// Executor answers SPARQL queries. *sparql.Engine satisfies it; the proxy
// in internal/proxy wraps one Executor with caching and routing.
type Executor interface {
	Query(ctx context.Context, src string) (*sparql.Result, error)
}

// ExecutorFunc adapts a function to the Executor interface.
type ExecutorFunc func(ctx context.Context, src string) (*sparql.Result, error)

// Query implements Executor.
func (f ExecutorFunc) Query(ctx context.Context, src string) (*sparql.Result, error) {
	return f(ctx, src)
}

// Updater applies SPARQL Update requests. *proxy.Proxy satisfies it; a
// server without one is read-only and answers update requests with 501.
type Updater interface {
	Update(ctx context.Context, src string) (store.ApplyResult, error)
}

// Explainer reports a query's plan without executing it. *sparql.Engine
// and *proxy.Proxy (over a local backend) satisfy it; an executor that
// does not answers explain requests with 501.
type Explainer interface {
	Explain(ctx context.Context, src string) (*sparql.PlanReport, error)
}

// ErrReadOnly marks an update rejected because this process does not
// own the data it serves (a remote-backed proxy). An Updater returning
// an error wrapping it is answered with 501, same as having no Updater
// at all.
var ErrReadOnly = errors.New("endpoint: read-only")

// UpdateStats is the JSON body acknowledging an applied update. The
// acknowledgment is written only after the mutation is durable (the
// store appends to its write-ahead log before publishing the result).
type UpdateStats struct {
	// Inserted and Deleted are the net triple counts the request changed
	// (an insert of a present triple or delete of an absent one is a
	// no-op and counts zero).
	Inserted int `json:"inserted"`
	Deleted  int `json:"deleted"`
	// Generation is the store generation after the update.
	Generation uint64 `json:"generation"`
}

// UpdateContentType is the SPARQL 1.1 protocol media type for a direct
// POST of an update request body.
const UpdateContentType = "application/sparql-update"

// maxUpdateBytes bounds a direct-POST update body; bulk loads belong in
// the offline ingest path.
const maxUpdateBytes = 8 << 20

// Server is an HTTP handler exposing an Executor at /sparql, accepting the
// query via GET ?query= or POST form field "query" (the two access methods
// the SPARQL protocol defines that Virtuoso supports over AJAX).
//
// Production hardening on top of the protocol:
//
//   - Admission control: an optional weighted-semaphore Limiter bounds
//     concurrent query work. A request that cannot be admitted within
//     AcquireTimeout is shed with 429 and a Retry-After header instead of
//     stacking goroutines until the process collapses.
//   - Per-query deadline: Timeout bounds execution; an expired query is
//     cut off inside the engine's join loops and answered with 504.
//   - One writer sized by the answer: a body that fits BodyBytes goes out
//     in one write with Content-Length, a larger one in BodyBytes chunks
//     (memory stays bounded) ending with the CompleteTrailer, and a
//     BodyExecutor's cached body goes out as is.
type Server struct {
	exec Executor
	// Updater handles SPARQL Update requests (POST with an
	// application/sparql-update body or an update= form field). nil makes
	// the endpoint read-only: update requests get 501.
	Updater Updater
	// Timeout bounds each query's execution (0 = no bound).
	Timeout time.Duration
	// Limiter admission-controls query work (nil = unlimited).
	Limiter *Limiter
	// AcquireTimeout bounds how long a request may wait for admission
	// when the limiter is saturated (0 = fail immediately).
	AcquireTimeout time.Duration

	inFlight     metrics.Gauge
	admitted     metrics.Counter
	rejected     metrics.Counter
	timeouts     metrics.Counter
	failures     metrics.Counter
	clientAborts metrics.Counter
	streamed     metrics.Counter
	updates      metrics.Counter
	latency      metrics.Histogram
	startedAt    time.Time
}

// NewServer returns a Server over exec.
func NewServer(exec Executor) *Server { return &Server{exec: exec, startedAt: time.Now()} }

// ServerMetrics is the HTTP half of the /metrics document.
type ServerMetrics struct {
	// UptimeSeconds counts from server construction.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// InFlight is the number of requests currently executing.
	InFlight int64 `json:"in_flight"`
	// WaitingAdmission is the limiter's queue length (0 without limiter).
	WaitingAdmission int `json:"waiting_admission"`
	// CapacityWeight is the limiter capacity (0 without limiter).
	CapacityWeight int64 `json:"capacity_weight"`
	// Admitted, Rejected429, Timeout504, Failures count request outcomes;
	// ClientAborts counts mid-stream client disconnects (not failures).
	Admitted     uint64 `json:"admitted"`
	Rejected429  uint64 `json:"rejected_429"`
	Timeout504   uint64 `json:"timeout_504"`
	Failures     uint64 `json:"failures"`
	ClientAborts uint64 `json:"client_aborts"`
	// Streamed counts responses that went out chunked, whole: bodies
	// larger than BodyBytes.
	Streamed uint64 `json:"streamed"`
	// Updates counts successfully applied SPARQL Update requests.
	Updates uint64 `json:"updates"`
	// Latency is the end-to-end request latency distribution.
	Latency metrics.HistogramSnapshot `json:"latency"`
}

// MetricsSnapshot captures the server's request metrics.
func (s *Server) MetricsSnapshot() ServerMetrics {
	m := ServerMetrics{
		UptimeSeconds: time.Since(s.startedAt).Seconds(),
		InFlight:      s.inFlight.Value(),
		Admitted:      s.admitted.Value(),
		Rejected429:   s.rejected.Value(),
		Timeout504:    s.timeouts.Value(),
		Failures:      s.failures.Value(),
		ClientAborts:  s.clientAborts.Value(),
		Streamed:      s.streamed.Value(),
		Updates:       s.updates.Value(),
		Latency:       s.latency.Snapshot(),
	}
	if s.Limiter != nil {
		m.WaitingAdmission = s.Limiter.Waiting()
		m.CapacityWeight = s.Limiter.Capacity()
	}
	return m
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var query, update string
	var explain bool
	switch r.Method {
	case http.MethodGet:
		// The protocol forbids updates via GET: a cacheable, replayable
		// method must not mutate, so only query= is looked for here.
		params := r.URL.Query()
		query = params.Get("query")
		explain = params.Get("explain") != ""
	case http.MethodPost:
		if mt, _, err := mime.ParseMediaType(r.Header.Get("Content-Type")); err == nil && mt == UpdateContentType {
			// Direct POST: the body IS the update request.
			body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxUpdateBytes))
			if err != nil {
				http.Error(w, "read body: "+err.Error(), http.StatusBadRequest)
				return
			}
			update = string(body)
		} else {
			if err := r.ParseForm(); err != nil {
				http.Error(w, "bad form: "+err.Error(), http.StatusBadRequest)
				return
			}
			query = r.PostForm.Get("query")
			update = r.PostForm.Get("update")
			explain = r.PostForm.Get("explain") != ""
		}
	default:
		w.Header().Set("Allow", "GET, POST")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if update != "" {
		s.serveUpdate(w, r, update)
		return
	}
	if query == "" {
		http.Error(w, "missing query parameter", http.StatusBadRequest)
		return
	}
	if explain {
		s.serveExplain(w, r, query)
		return
	}

	ctx := r.Context()
	start := time.Now()

	// Admission control: acquire one unit of the limiter's capacity,
	// waiting at most AcquireTimeout, before any execution work starts.
	if s.Limiter != nil {
		const weight = 1
		acquireCtx := ctx
		var cancelAcquire context.CancelFunc
		if s.AcquireTimeout > 0 {
			acquireCtx, cancelAcquire = context.WithTimeout(ctx, s.AcquireTimeout)
		} else {
			// No wait budget: admit only if capacity is free right now.
			acquireCtx, cancelAcquire = context.WithCancel(ctx)
			cancelAcquire()
		}
		err := s.Limiter.Acquire(acquireCtx, weight)
		if cancelAcquire != nil {
			cancelAcquire()
		}
		if err != nil {
			if ctx.Err() != nil {
				// The client itself went away while queued.
				http.Error(w, ctx.Err().Error(), http.StatusGatewayTimeout)
				return
			}
			s.rejected.Inc()
			w.Header().Set("Retry-After", s.retryAfter())
			http.Error(w, "server saturated, retry later", http.StatusTooManyRequests)
			return
		}
		defer s.Limiter.Release(weight)
	}
	s.admitted.Inc()
	s.inFlight.Inc()
	defer s.inFlight.Dec()
	// End-to-end latency for admitted requests, queue wait included —
	// under saturation the admission wait is exactly what the
	// Retry-After hint must reflect.
	defer func() { s.latency.Observe(time.Since(start)) }()

	if s.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.Timeout)
		defer cancel()
	}

	s.serveQuery(ctx, w, r, query)
}

// serveQuery answers a query through the one writer (writer.go). Errors
// raised before the header is on the wire keep their status codes; after
// it, the answer can only be cut short, leaving the document
// unterminated and the CompleteTrailer unset.
func (s *Server) serveQuery(ctx context.Context, w http.ResponseWriter, r *http.Request, query string) {
	contentType := NegotiateFormat(r.Header.Get("Accept"))
	var tab *sparql.Table
	var body []byte
	var err error
	if bx, ok := s.exec.(BodyExecutor); ok {
		tab, body, err = bx.QueryBody(ctx, query, contentType)
	} else {
		var res *sparql.Result
		if res, err = s.exec.Query(ctx, query); err == nil {
			tab = sparql.TableOf(res)
		}
	}
	if err == nil {
		// The engine checks the context inside its join loops, but a
		// deadline can also land right after the answer is complete:
		// spend no encoding on a request whose context is already dead.
		err = ctx.Err()
	}
	if err != nil {
		s.writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", contentType)
	a := &answerWriter{ctx: ctx, w: w, limit: BodyBytes}
	if body != nil {
		// A kept body belongs to a cache tier: it is written, never pooled.
		err = a.finish(body)
	} else {
		err = a.encodeFresh(tab, contentType)
	}
	switch {
	case err == nil:
		if a.chunked {
			s.streamed.Inc()
		}
	case !a.sent: // the context died before the first chunk
		w.Header().Del("Content-Type")
		s.writeError(w, err)
	case errors.Is(err, context.DeadlineExceeded):
		s.timeouts.Inc()
	default:
		// Anything else that fails once bytes are on the wire is the
		// client side of the connection going away: a client abort, not
		// a server failure worth paging on.
		s.clientAborts.Inc()
	}
}

// serveUpdate applies a SPARQL Update request and acknowledges it with
// an UpdateStats JSON body. Updates bypass the query limiter — they
// serialize on the store's single writer lock, so admission weighting
// against query capacity would just double-queue them — but share the
// per-request timeout and the latency/in-flight accounting.
func (s *Server) serveUpdate(w http.ResponseWriter, r *http.Request, src string) {
	if s.Updater == nil {
		http.Error(w, "read-only endpoint: no update handler configured", http.StatusNotImplemented)
		return
	}
	ctx := r.Context()
	start := time.Now()
	s.inFlight.Inc()
	defer s.inFlight.Dec()
	defer func() { s.latency.Observe(time.Since(start)) }()
	if s.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.Timeout)
		defer cancel()
	}
	res, err := s.Updater.Update(ctx, src)
	if err != nil {
		s.writeError(w, err)
		return
	}
	// Reaching here means Apply returned: the mutation is durable under
	// the WAL's sync policy. Only now is the acknowledgment written.
	s.updates.Inc()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(UpdateStats{
		Inserted:   res.Inserted,
		Deleted:    res.Deleted,
		Generation: res.To,
	})
}

// serveExplain answers an explain=1 request with the query's plan as
// JSON — the join order the planner chose, per-step cardinality and row
// estimates, and the operator kinds — without executing the query.
// Explain requests bypass the query limiter: planning touches only the
// snapshot statistics and index offsets, never the data.
func (s *Server) serveExplain(w http.ResponseWriter, r *http.Request, query string) {
	ex, ok := s.exec.(Explainer)
	if !ok {
		http.Error(w, "executor does not support explain", http.StatusNotImplemented)
		return
	}
	ctx := r.Context()
	if s.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.Timeout)
		defer cancel()
	}
	rep, err := ex.Explain(ctx, query)
	if err != nil {
		s.writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		s.failures.Inc()
	}
}

// writeError maps an execution error to its HTTP status.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	switch {
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		status = http.StatusGatewayTimeout
		s.timeouts.Inc()
	case errors.Is(err, ErrReadOnly):
		status = http.StatusNotImplemented
		s.failures.Inc()
	default:
		s.failures.Inc()
	}
	http.Error(w, err.Error(), status)
}

// retryAfter derives the Retry-After hint from the observed latency
// distribution: roughly the time for the current median query to drain,
// with a 1-second floor so well-behaved clients back off meaningfully.
func (s *Server) retryAfter() string {
	p50 := s.latency.Snapshot().P50
	secs := int64(p50 / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}
