package endpoint

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"elinda/internal/rdf"
	"elinda/internal/sparql"
	"elinda/internal/store"
)

// blockingExec blocks every query until released, to saturate the
// limiter deterministically.
type blockingExec struct {
	entered chan struct{} // one tick per query that started
	release chan struct{} // closed to let queries finish
}

func newBlockingExec() *blockingExec {
	return &blockingExec{entered: make(chan struct{}, 64), release: make(chan struct{})}
}

func (b *blockingExec) Query(ctx context.Context, src string) (*sparql.Result, error) {
	b.entered <- struct{}{}
	select {
	case <-b.release:
		return &sparql.Result{Vars: []string{"s"}}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// TestServerSheds429UnderSaturation is the satellite admission test: with
// capacity 1 occupied, a second request must be shed with 429 and a
// Retry-After header instead of queueing forever.
func TestServerSheds429UnderSaturation(t *testing.T) {
	exec := newBlockingExec()
	s := NewServer(exec)
	s.Limiter = NewLimiter(1)
	s.AcquireTimeout = 20 * time.Millisecond
	srv := httptest.NewServer(s)
	defer srv.Close()

	q := srv.URL + "?query=" + url.QueryEscape(`SELECT ?s WHERE { ?s ?p ?o }`)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := http.Get(q)
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-exec.entered // the first request now owns the whole capacity

	resp, err := http.Get(q)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 without Retry-After header")
	}
	close(exec.release)
	wg.Wait()

	m := s.MetricsSnapshot()
	if m.Rejected429 != 1 {
		t.Errorf("rejected = %d, want 1", m.Rejected429)
	}
	if m.Admitted != 1 {
		t.Errorf("admitted = %d, want 1", m.Admitted)
	}
}

// TestServerDeadline504ThroughLimiter: an admitted query that overruns
// the per-query deadline is answered 504 (and the weight is released for
// the next request).
func TestServerDeadline504ThroughLimiter(t *testing.T) {
	exec := newBlockingExec()
	s := NewServer(exec)
	s.Limiter = NewLimiter(2)
	s.AcquireTimeout = 50 * time.Millisecond
	s.Timeout = 30 * time.Millisecond
	srv := httptest.NewServer(s)
	defer srv.Close()
	defer close(exec.release)

	resp, err := http.Get(srv.URL + "?query=" + url.QueryEscape(`SELECT ?s WHERE { ?s ?p ?o }`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("deadline status = %d, want 504", resp.StatusCode)
	}
	if got := s.Limiter.InFlight(); got != 0 {
		t.Errorf("in-flight weight leaked: %d", got)
	}
	if m := s.MetricsSnapshot(); m.Timeout504 != 1 {
		t.Errorf("timeout counter = %d, want 1", m.Timeout504)
	}
}

// TestLimiterFIFOAndWeights exercises the weighted semaphore directly.
func TestLimiterFIFOAndWeights(t *testing.T) {
	l := NewLimiter(4)
	if err := l.Acquire(context.Background(), 3); err != nil {
		t.Fatal(err)
	}
	if !l.TryAcquire(1) {
		t.Fatal("capacity 4 should admit 3+1")
	}
	if l.TryAcquire(1) {
		t.Fatal("over-capacity TryAcquire succeeded")
	}
	// A queued heavy acquirer must not be starved by a light one arriving
	// later: FIFO order.
	heavyDone := make(chan struct{})
	lightDone := make(chan struct{})
	ready := make(chan struct{}, 2)
	go func() {
		ready <- struct{}{}
		if err := l.Acquire(context.Background(), 4); err == nil {
			close(heavyDone)
		}
	}()
	<-ready
	for l.Waiting() == 0 { // the heavy acquirer is queued
		time.Sleep(time.Millisecond)
	}
	go func() {
		ready <- struct{}{}
		if err := l.Acquire(context.Background(), 1); err == nil {
			close(lightDone)
		}
	}()
	<-ready
	for l.Waiting() < 2 {
		time.Sleep(time.Millisecond)
	}
	l.Release(1)
	select {
	case <-lightDone:
		t.Fatal("light acquirer jumped the FIFO queue past the heavy one")
	case <-time.After(30 * time.Millisecond):
	}
	l.Release(3) // now the heavy one fits, then the light one
	<-heavyDone
	l.Release(4)
	<-lightDone
	l.Release(1)
	if got := l.InFlight(); got != 0 {
		t.Errorf("in-flight = %d after full release", got)
	}
}

// TestLimiterAcquireCancellation: a canceled waiter leaves the queue and
// never holds weight.
func TestLimiterAcquireCancellation(t *testing.T) {
	l := NewLimiter(1)
	if err := l.Acquire(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := l.Acquire(ctx, 1); err == nil {
		t.Fatal("expired acquire should fail")
	}
	if got := l.Waiting(); got != 0 {
		t.Errorf("waiting = %d after canceled acquire", got)
	}
	l.Release(1)
	if got := l.InFlight(); got != 0 {
		t.Errorf("in-flight = %d", got)
	}
}

// streamingFixtureEngine builds a store with every term shape the
// encoders must render: IRIs, plain/lang/typed literals, blank nodes,
// unbound optionals.
func streamingFixtureEngine(t *testing.T) *sparql.Engine {
	t.Helper()
	st := store.New(64)
	_, err := st.Load([]rdf.Triple{
		{S: ex("plato"), P: rdf.TypeIRI, O: ex("Philosopher")},
		{S: ex("plato"), P: rdf.LabelIRI, O: rdf.NewLangLiteral("Plato", "en")},
		{S: ex("plato"), P: ex("born"), O: rdf.NewTypedLiteral("-427", rdf.XSDInteger)},
		{S: ex("plato"), P: ex("quote"), O: rdf.NewLiteral("know\tthyself\nwell")},
		{S: ex("aristotle"), P: rdf.TypeIRI, O: ex("Philosopher")},
		{S: ex("aristotle"), P: ex("teacher"), O: ex("plato")},
		{S: rdf.NewBlank("b0"), P: ex("teacher"), O: ex("aristotle")},
		{S: ex("zeno"), P: rdf.TypeIRI, O: ex("Stoic")},
		{S: ex("zeno"), P: ex("quote"), O: rdf.NewLangLiteral("<a> & \"b\" \\ \x01\u2028 Ζήνων", "grc")},
	})
	if err != nil {
		t.Fatal(err)
	}
	return sparql.NewEngine(st)
}

// rowEngine serves an engine through the streaming encoders the way the
// serving proxy does: execute the query, then replay the result into the
// sink.
type rowEngine struct{ *sparql.Engine }

func (e rowEngine) QueryRows(ctx context.Context, src string, sink sparql.RowSink) error {
	res, err := e.Query(ctx, src)
	if err != nil {
		return err
	}
	return sparql.ReplayResult(res, sink)
}

// streamingCorpus exercises projection, DISTINCT, aggregates, OPTIONAL
// with unbound cells (one table with two columns), VALUES (with UNDEF),
// UNION (with branches binding different variables), ORDER BY/LIMIT/
// OFFSET, ASK, lang and datatype tags, a literal that needs escaping, and
// empty results.
var streamingCorpus = []string{
	`SELECT ?s WHERE { ?s a <http://example.org/Philosopher> . }`,
	`SELECT * WHERE { ?s ?p ?o . }`,
	`SELECT DISTINCT ?p WHERE { ?s ?p ?o . }`,
	`SELECT ?s ?t WHERE { ?s a <http://example.org/Philosopher> . OPTIONAL { ?s <http://example.org/teacher> ?t . } }`,
	`SELECT ?p (COUNT(?s) AS ?n) WHERE { ?s ?p ?o . } GROUP BY ?p`,
	`SELECT ?p (COUNT(?s) AS ?n) WHERE { ?s ?p ?o . } GROUP BY ?p HAVING (?n > 1)`,
	`SELECT ?s WHERE { ?s ?p ?o . } ORDER BY ?s LIMIT 3 OFFSET 1`,
	`SELECT ?s WHERE { VALUES ?s { <http://example.org/plato> <http://example.org/zeno> } ?s a ?c . }`,
	`SELECT ?s WHERE { { ?s a <http://example.org/Stoic> . } UNION { ?s a <http://example.org/Philosopher> . } }`,
	`SELECT ?s WHERE { ?s a <http://example.org/Nothing> . }`,
	`SELECT ?o WHERE { <http://example.org/plato> <http://example.org/quote> ?o . }`,
	`SELECT ?s ?v1 ?v2 WHERE { ?s a <http://example.org/Philosopher> . OPTIONAL { ?s <http://example.org/teacher> ?v1 . } OPTIONAL { ?s <http://www.w3.org/2000/01/rdf-schema#label> ?v2 . } }`,
	`SELECT ?s ?t ?y WHERE { ?s a ?c . { ?s <http://example.org/teacher> ?t . } UNION { ?s <http://example.org/born> ?y . } }`,
	`SELECT ?s ?c WHERE { VALUES (?s ?c) { (<http://example.org/plato> UNDEF) (UNDEF <http://example.org/Stoic>) } ?s a ?c . }`,
	`SELECT ?s ?l ?b WHERE { ?s <http://www.w3.org/2000/01/rdf-schema#label> ?l . ?s <http://example.org/born> ?b . }`,
	`SELECT ?s ?o WHERE { ?s <http://example.org/quote> ?o . }`,
	`ASK { ?s a <http://example.org/Philosopher> . }`,
	`ASK { ?s a <http://example.org/Nothing> . }`,
}

// TestStreamingEncodersByteIdentical: for every corpus query and both
// streaming formats, the streamed HTTP body must equal the buffered
// encoder's output exactly, and for JSON both must equal the
// encoding/json oracle's (json_oracle_test.go).
func TestStreamingEncodersByteIdentical(t *testing.T) {
	eng := streamingFixtureEngine(t)
	// An executor that is not a sparql.RowExecutor takes the buffered path.
	buffered := NewServer(ExecutorFunc(eng.Query))
	streaming := NewServer(rowEngine{eng})
	streaming.flushRows = 2 // aggressive cadence: many flush boundaries

	for _, accept := range []string{ContentType, ContentTypeTSV} {
		for _, src := range streamingCorpus {
			req := httptest.NewRequest(http.MethodGet, "/sparql?query="+url.QueryEscape(src), nil)
			req.Header.Set("Accept", accept)
			recB := httptest.NewRecorder()
			buffered.ServeHTTP(recB, req.Clone(req.Context()))
			recS := httptest.NewRecorder()
			streaming.ServeHTTP(recS, req)

			if recB.Code != http.StatusOK || recS.Code != http.StatusOK {
				t.Fatalf("%s %q: status buffered=%d streaming=%d", accept, src, recB.Code, recS.Code)
			}
			if !bytes.Equal(recB.Body.Bytes(), recS.Body.Bytes()) {
				t.Errorf("%s %q:\nbuffered:  %s\nstreaming: %s", accept, src, recB.Body.String(), recS.Body.String())
			}
			if accept == ContentType {
				res, err := eng.Query(context.Background(), src)
				if err != nil {
					t.Fatal(err)
				}
				if want := oracleMarshalResult(res); !bytes.Equal(recB.Body.Bytes(), want) {
					t.Errorf("%q:\nbuffered: %s\noracle:   %s", src, recB.Body.String(), want)
				}
			}
			if ct := recS.Header().Get("Content-Type"); ct != accept {
				t.Errorf("%s %q: streaming content type = %q", accept, src, ct)
			}
		}
	}
}

// TestStreamingFlushes: with flushRows=1 the recorder must see a flush
// before the response completes.
func TestStreamingFlushes(t *testing.T) {
	eng := streamingFixtureEngine(t)
	s := NewServer(rowEngine{eng})
	s.flushRows = 1
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/sparql?query="+url.QueryEscape(`SELECT * WHERE { ?s ?p ?o . }`), nil)
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if !rec.Flushed {
		t.Error("streaming response was never flushed")
	}
}

// TestStreamingErrorsKeepStatusCodes: failures raised before the first
// row (parse errors, deadlines) must still map to proper statuses on the
// streaming path.
func TestStreamingErrorsKeepStatusCodes(t *testing.T) {
	eng := streamingFixtureEngine(t)
	s := NewServer(rowEngine{eng})

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/sparql?query="+url.QueryEscape("NOT SPARQL"), nil))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("parse error status = %d, want 400", rec.Code)
	}

	s.Timeout = time.Nanosecond
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/sparql?query="+url.QueryEscape(`SELECT * WHERE { ?a ?b ?c . ?d ?e ?f . }`), nil))
	if rec.Code != http.StatusGatewayTimeout {
		t.Errorf("deadline status = %d, want 504", rec.Code)
	}
}

// TestStreamingCSVFallsBackBuffered: formats without a streaming encoder
// still work through the buffered path (with Content-Length set).
func TestStreamingCSVFallsBackBuffered(t *testing.T) {
	eng := streamingFixtureEngine(t)
	s := NewServer(rowEngine{eng})
	req := httptest.NewRequest(http.MethodGet, "/sparql?query="+url.QueryEscape(`SELECT ?s WHERE { ?s a <http://example.org/Stoic> . }`), nil)
	req.Header.Set("Accept", ContentTypeCSV)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if rec.Header().Get("Content-Length") == "" {
		t.Error("buffered fallback should set Content-Length")
	}
	if _, err := io.ReadAll(rec.Result().Body); err != nil {
		t.Fatal(err)
	}
}

// failsAfterOneRow streams one row, then fails: the response header is
// already on the wire, so only the missing trailer can tell a client
// the result is truncated.
type failsAfterOneRow struct{ rowEngine }

func (failsAfterOneRow) QueryRows(ctx context.Context, src string, sink sparql.RowSink) error {
	if err := sink.Head([]string{"s"}, false, false); err != nil {
		return err
	}
	if err := sink.Row(sparql.Solution{"s": ex("a")}); err != nil {
		return err
	}
	return errors.New("backend lost mid-stream")
}

// TestStreamingCompleteTrailer: a streamed response declares the
// X-Elinda-Complete trailer and sets it only when the document was
// written whole; a failure after the first flushed row leaves a 200 with
// the trailer absent.
func TestStreamingCompleteTrailer(t *testing.T) {
	eng := streamingFixtureEngine(t)
	src := `SELECT * WHERE { ?s ?p ?o . }`
	for _, tc := range []struct {
		name string
		exec Executor
		want string
	}{
		{"complete", rowEngine{eng}, "1"},
		{"cut mid-stream", failsAfterOneRow{rowEngine{eng}}, ""},
	} {
		s := NewServer(tc.exec)
		s.flushRows = 1
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/sparql?query="+url.QueryEscape(src), nil))
		res := rec.Result()
		if res.StatusCode != http.StatusOK {
			t.Fatalf("%s: status = %d", tc.name, res.StatusCode)
		}
		if got := res.Header.Get("Trailer"); got != CompleteTrailer {
			t.Errorf("%s: Trailer header = %q, want %q", tc.name, got, CompleteTrailer)
		}
		if got := res.Trailer.Get(CompleteTrailer); got != tc.want {
			t.Errorf("%s: %s trailer = %q, want %q", tc.name, CompleteTrailer, got, tc.want)
		}
	}
}

// TestStreamerAbortLeavesDocumentUnterminated: a mid-stream abort must
// NOT write the JSON terminator — a truncated result has to stay
// syntactically incomplete so clients can tell it from a complete one.
func TestStreamerAbortLeavesDocumentUnterminated(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONStreamer(&buf, nil, 1)
	if err := s.Head([]string{"s"}, false, false); err != nil {
		t.Fatal(err)
	}
	if err := s.Row(sparql.Solution{"s": ex("a")}); err != nil {
		t.Fatal(err)
	}
	if err := s.Abort(); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	if strings.HasSuffix(body, "]}}") {
		t.Fatalf("aborted stream was terminated as a complete document: %s", body)
	}
	var doc any
	if json.Unmarshal(buf.Bytes(), &doc) == nil {
		t.Fatalf("aborted body parses as complete JSON: %s", body)
	}
}

// TestLimiterCancelledHeadWakesFollowers is the missed-wakeup
// regression: when the head-of-line waiter cancels, smaller queued
// waiters that now fit must be granted immediately, not on the next
// Release.
func TestLimiterCancelledHeadWakesFollowers(t *testing.T) {
	l := NewLimiter(10)
	if err := l.Acquire(context.Background(), 6); err != nil {
		t.Fatal(err)
	}
	// Head waiter wants 5 (does not fit: 6+5>10).
	headCtx, cancelHead := context.WithCancel(context.Background())
	headErr := make(chan error, 1)
	go func() { headErr <- l.Acquire(headCtx, 5) }()
	for l.Waiting() == 0 {
		time.Sleep(time.Millisecond)
	}
	// Follower wants 4 (fits: 6+4=10) but FIFO blocks it behind the head.
	followerDone := make(chan error, 1)
	go func() { followerDone <- l.Acquire(context.Background(), 4) }()
	for l.Waiting() < 2 {
		time.Sleep(time.Millisecond)
	}
	cancelHead()
	if err := <-headErr; err == nil {
		t.Fatal("canceled head acquire should fail")
	}
	select {
	case err := <-followerDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("follower not granted after head-of-line waiter canceled")
	}
	l.Release(4)
	l.Release(6)
	if got := l.InFlight(); got != 0 {
		t.Errorf("in-flight = %d after full release", got)
	}
}
