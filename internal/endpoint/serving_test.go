package endpoint

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
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
	// A cancelled context admits only without waiting: what the server
	// runs when AcquireTimeout is 0.
	noWait, cancel := context.WithCancel(context.Background())
	cancel()
	if err := l.Acquire(noWait, 1); err != nil {
		t.Fatal("capacity 4 should admit 3+1")
	}
	if err := l.Acquire(noWait, 1); err == nil {
		t.Fatal("over-capacity Acquire without waiting succeeded")
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

// marshalers are the whole-body encoders, one per format.
var marshalers = map[string]func(*sparql.Result) ([]byte, error){
	ContentType:    marshalJSON,
	ContentTypeTSV: marshalTSV,
	ContentTypeCSV: marshalCSV,
	ContentTypeXML: marshalXML,
}

// TestStreamingEncodersByteIdentical: for every corpus query and every
// format, the served body equals the whole-body encoder's output, and so
// does the body sent through writers of a few bytes, which cross a chunk
// boundary at nearly every row; for JSON all of them equal the
// encoding/json oracle's (json_oracle_test.go).
func TestStreamingEncodersByteIdentical(t *testing.T) {
	eng := streamingFixtureEngine(t)
	s := NewServer(eng)
	for accept, marshal := range marshalers {
		for _, src := range streamingCorpus {
			res, err := eng.Query(context.Background(), src)
			if err != nil {
				t.Fatal(err)
			}
			want, err := marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			if accept == ContentType {
				if oracle := oracleMarshalResult(res); !bytes.Equal(want, oracle) {
					t.Errorf("%q:\nMarshalResult: %s\noracle:        %s", src, want, oracle)
				}
			}
			req := httptest.NewRequest(http.MethodGet, "/sparql?query="+url.QueryEscape(src), nil)
			req.Header.Set("Accept", accept)
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s %q: status %d", accept, src, rec.Code)
			}
			if ct := rec.Header().Get("Content-Type"); ct != accept {
				t.Errorf("%s %q: content type = %q", accept, src, ct)
			}
			if !bytes.Equal(rec.Body.Bytes(), want) {
				t.Errorf("%s %q:\nserved: %s\nwhole:  %s", accept, src, rec.Body.String(), want)
			}
			for _, limit := range []int{1, 16} {
				if got := serveThrough(t, res, accept, limit).Body.Bytes(); !bytes.Equal(got, want) {
					t.Errorf("%s %q: writer of %d bytes:\n got  %s\n want %s", accept, src, limit, got, want)
				}
			}
		}
	}
}

// TestStreamingFlushes: an answer larger than the writer's buffer is
// flushed chunk by chunk before the response completes.
func TestStreamingFlushes(t *testing.T) {
	eng := streamingFixtureEngine(t)
	res, err := eng.Query(context.Background(), `SELECT * WHERE { ?s ?p ?o . }`)
	if err != nil {
		t.Fatal(err)
	}
	if rec := serveThrough(t, res, ContentType, 16); !rec.Flushed {
		t.Error("chunked response was never flushed")
	}
}

// TestStreamingErrorsKeepStatusCodes: failures raised before the first
// byte (parse errors, deadlines) map to proper statuses.
func TestStreamingErrorsKeepStatusCodes(t *testing.T) {
	eng := streamingFixtureEngine(t)
	s := NewServer(eng)

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

// TestStreamingCSVFallsBackBuffered: CSV goes through the same writer as
// every format, so an answer within BodyBytes carries Content-Length.
func TestStreamingCSVFallsBackBuffered(t *testing.T) {
	eng := streamingFixtureEngine(t)
	s := NewServer(eng)
	req := httptest.NewRequest(http.MethodGet, "/sparql?query="+url.QueryEscape(`SELECT ?s WHERE { ?s a <http://example.org/Stoic> . }`), nil)
	req.Header.Set("Accept", ContentTypeCSV)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if got, want := rec.Header().Get("Content-Length"), strconv.Itoa(rec.Body.Len()); got != want {
		t.Errorf("Content-Length = %q, want %q", got, want)
	}
}

// literalAnswer is a one-row SELECT whose JSON body is exactly n bytes
// long (n must be at least its length with an empty literal).
func literalAnswer(t testing.TB, n int) *sparql.Result {
	res := &sparql.Result{Vars: []string{"s"}, Rows: []sparql.Solution{{"s": rdf.NewLiteral("")}}}
	empty, _ := marshalJSON(res)
	if n < len(empty) {
		t.Fatalf("a body of %d bytes is shorter than the empty literal's %d", n, len(empty))
	}
	res.Rows[0]["s"] = rdf.NewLiteral(strings.Repeat("a", n-len(empty)))
	return res
}

// manyRows is a SELECT of n rows, each a distinct IRI.
func manyRows(n int) *sparql.Result {
	res := &sparql.Result{Vars: []string{"s"}}
	for i := range n {
		res.Rows = append(res.Rows, sparql.Solution{"s": ex("r" + strconv.Itoa(i))})
	}
	return res
}

// fixedExec answers every query with res.
type fixedExec struct{ res *sparql.Result }

func (f fixedExec) Query(context.Context, string) (*sparql.Result, error) { return f.res, nil }

// bodyExec is fixedExec as a BodyExecutor: it hands back res's body
// when EncodeBody keeps it, the way the proxy hands back a cached
// answer's.
type bodyExec struct{ fixedExec }

var _ BodyExecutor = bodyExec{}

func (f bodyExec) QueryBody(_ context.Context, _, contentType string) (*sparql.Table, []byte, error) {
	if body, ok := EncodeBody(sparql.TableOf(f.res), contentType); ok {
		return nil, body, nil
	}
	return sparql.TableOf(f.res), nil, nil
}

// keptOrFresh answers the query "kept" with a body it holds, as a cache
// tier does, and any other query with res as a fresh table.
type keptOrFresh struct {
	kept []byte
	res  *sparql.Result
}

func (k keptOrFresh) Query(context.Context, string) (*sparql.Result, error) { return k.res, nil }

func (k keptOrFresh) QueryBody(_ context.Context, src, _ string) (*sparql.Table, []byte, error) {
	if src == "kept" {
		return nil, k.kept, nil
	}
	return sparql.TableOf(k.res), nil, nil
}

// TestKeptBodyNeverPooled: a kept body served twice, between fresh
// answers that encode into pooled buffers (one within BodyBytes, one
// over it), goes out unchanged and stays unchanged.
func TestKeptBodyNeverPooled(t *testing.T) {
	kept, ok := EncodeBody(sparql.TableOf(manyRows(100)), ContentType)
	if !ok {
		t.Fatal("EncodeBody refused a small answer")
	}
	want := bytes.Clone(kept)
	for _, fresh := range []*sparql.Result{manyRows(200), manyRows(3 * BodyBytes / 40)} {
		srv := NewServer(keptOrFresh{kept: kept, res: fresh})
		for i, src := range []string{"kept", "fresh", "kept", "fresh", "kept"} {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/sparql?query="+src, nil))
			body := want
			if src == "fresh" {
				body = oracleMarshalResult(fresh)
			}
			if !bytes.Equal(rec.Body.Bytes(), body) {
				t.Fatalf("request %d (%s): body of %d bytes, want %d", i, src, rec.Body.Len(), len(body))
			}
			if !bytes.Equal(kept, want) {
				t.Fatalf("request %d (%s): the kept body changed", i, src)
			}
		}
	}
}

// TestServeAroundBodyBytes: answers just under, at and over BodyBytes,
// fresh and from kept bytes, are the oracle's bytes; a body within
// BodyBytes carries Content-Length and no trailer, a larger one goes out
// chunked with the CompleteTrailer set to 1. EncodeBody keeps a body
// exactly when it fits.
func TestServeAroundBodyBytes(t *testing.T) {
	for _, tc := range []struct {
		name string
		res  *sparql.Result
	}{
		{"under", literalAnswer(t, BodyBytes-1)},
		{"at", literalAnswer(t, BodyBytes)},
		{"over", literalAnswer(t, BodyBytes+1)},
		{"rows over three buffers", manyRows(3 * BodyBytes / 40)},
	} {
		want := oracleMarshalResult(tc.res)
		whole := len(want) <= BodyBytes
		if body, kept := EncodeBody(sparql.TableOf(tc.res), "text/html"); kept || body != nil {
			t.Errorf("%s: EncodeBody kept a body in a type it has no encoder for", tc.name)
		}
		if _, kept := EncodeBody(sparql.TableOf(tc.res), ContentType); kept != whole {
			t.Errorf("%s: EncodeBody kept a %d-byte body = %v", tc.name, len(want), kept)
		}
		for _, exec := range []Executor{fixedExec{res: tc.res}, bodyExec{fixedExec{res: tc.res}}} {
			srv := httptest.NewServer(NewServer(exec))
			resp, err := http.Get(srv.URL + "?query=" + url.QueryEscape("SELECT * {}"))
			if err != nil {
				t.Fatal(err)
			}
			got, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			srv.Close()
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%s %T", tc.name, exec)
			if !bytes.Equal(got, want) {
				t.Errorf("%s: body of %d bytes differs from the oracle's %d", name, len(got), len(want))
			}
			if whole {
				if resp.ContentLength != int64(len(want)) || resp.Trailer.Get(CompleteTrailer) != "" {
					t.Errorf("%s: Content-Length %d, trailer %q; want %d and none", name, resp.ContentLength, resp.Trailer.Get(CompleteTrailer), len(want))
				}
			} else if resp.ContentLength != -1 || resp.Trailer.Get(CompleteTrailer) != "1" {
				t.Errorf("%s: Content-Length %d, trailer %q; want chunked with trailer 1", name, resp.ContentLength, resp.Trailer.Get(CompleteTrailer))
			}
		}
	}
}

// cutAfterFirstChunk cancels the request's context once the first chunk
// is flushed: a client that went away mid-answer.
type cutAfterFirstChunk struct {
	*httptest.ResponseRecorder
	cancel context.CancelFunc
}

func (c cutAfterFirstChunk) Flush() {
	c.ResponseRecorder.Flush()
	c.cancel()
}

// serveCut serves an answer over BodyBytes, either whole or cut after its
// first chunk, and returns the recorded response.
func serveCut(t *testing.T, cut bool) *httptest.ResponseRecorder {
	t.Helper()
	s := NewServer(fixedExec{res: manyRows(2 * BodyBytes / 40)})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := httptest.NewRequestWithContext(ctx, http.MethodGet, "/sparql?query="+url.QueryEscape("SELECT * {}"), nil)
	rec := httptest.NewRecorder()
	var w http.ResponseWriter = rec
	if cut {
		w = cutAfterFirstChunk{rec, cancel}
	}
	s.ServeHTTP(w, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	return rec
}

// TestStreamingCompleteTrailer: a chunked response declares the
// X-Elinda-Complete trailer and sets it only when the document was
// written whole; an answer cut after its first chunk leaves a 200 with
// the trailer absent, counted as a client abort.
func TestStreamingCompleteTrailer(t *testing.T) {
	for _, tc := range []struct {
		name string
		cut  bool
		want string
	}{
		{"complete", false, "1"},
		{"cut mid-answer", true, ""},
	} {
		res := serveCut(t, tc.cut).Result()
		if got := res.Header.Get("Trailer"); got != CompleteTrailer {
			t.Errorf("%s: Trailer header = %q, want %q", tc.name, got, CompleteTrailer)
		}
		if got := res.Trailer.Get(CompleteTrailer); got != tc.want {
			t.Errorf("%s: %s trailer = %q, want %q", tc.name, CompleteTrailer, got, tc.want)
		}
	}
}

// TestStreamerAbortLeavesDocumentUnterminated: an answer cut between
// chunks must NOT carry the JSON terminator — a truncated result has to
// stay syntactically incomplete so clients can tell it from a complete
// one.
func TestStreamerAbortLeavesDocumentUnterminated(t *testing.T) {
	body := serveCut(t, true).Body.Bytes()
	if len(body) != BodyBytes {
		t.Errorf("cut body holds %d bytes, want the first chunk's %d", len(body), BodyBytes)
	}
	if bytes.HasSuffix(body, []byte(jsonTail)) {
		t.Fatalf("cut answer was terminated as a complete document: ...%s", body[len(body)-32:])
	}
	var doc any
	if json.Unmarshal(body, &doc) == nil {
		t.Fatal("cut body parses as complete JSON")
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
