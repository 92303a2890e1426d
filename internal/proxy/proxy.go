// Package proxy implements the reverse proxy of eLinda's architecture
// (Figure 3). Every query from the frontend passes through it:
//
//  1. If the HVS holds the (heavy) query's result, serve it from the cache.
//  2. Otherwise, if the decomposer recognizes the query as a property
//     expansion, answer it from the specialized indexes; a text it
//     answered before is a lookup. Its answers never enter the HVS.
//  3. Otherwise route it to the backing SPARQL executor (local engine or
//     remote Virtuoso endpoint), measure its runtime, and record heavy
//     queries (> threshold) into the HVS.
//
// On top of the paper's three tiers the proxy is hardened for serving:
// concurrent identical backend queries against the same store generation
// are coalesced into a single execution (singleflight keyed on the
// normalized query text plus Snapshot().Generation(), so a coalesced
// answer can never cross a KB update), the HVS runs under an optional
// byte budget with LRU eviction, writes through Apply carry both cache
// tiers to the new generation before the store publishes it, a request
// that arrived before a write is served the tiers' current answer, and
// per-tier latency histograms feed the server's /metrics endpoint.
//
// Options are fixed at construction, so the read path takes no
// proxy-level lock; comparing configurations means building one proxy per
// configuration over the shared store. A HeavyThreshold no answer reaches
// (say time.Hour) leaves the HVS empty: the decomposer and backend alone.
//
// The proxy implements endpoint.BodyExecutor, so it can be served over
// HTTP by endpoint.Server, giving the full browser → proxy → cache/DB
// pipeline. A backend answer reaches the encoder as the engine's ID rows
// (sparql.Table). An answer a cache tier shares (an HVS entry, a
// decomposer memo rendering) keeps its encoded body beside it from its
// first serve, so a repeated hit is written as bytes already held.
package proxy

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"elinda/internal/decomposer"
	"elinda/internal/endpoint"
	"elinda/internal/hvs"
	"elinda/internal/metrics"
	"elinda/internal/rdf"
	"elinda/internal/sparql"
	"elinda/internal/store"
)

// Route identifies which tier answered a query.
type Route uint8

const (
	// RouteHVS means the answer came from the heavy query store.
	RouteHVS Route = iota
	// RouteDecomposer means the decomposer answered from indexes.
	RouteDecomposer
	// RouteBackend means the generic executor ran the query.
	RouteBackend

	numRoutes = 3
)

// String names the route.
func (r Route) String() string {
	switch r {
	case RouteHVS:
		return "hvs"
	case RouteDecomposer:
		return "decomposer"
	default:
		return "backend"
	}
}

// Options configure a Proxy.
type Options struct {
	// HeavyThreshold is the HVS heaviness cutoff (paper: 1 s).
	HeavyThreshold time.Duration
	// DisableDecomposer turns the index tier off; the server sets it
	// under -remote, where local indexes cannot mirror the remote data.
	DisableDecomposer bool
	// CacheMaxBytes is the HVS byte budget: the approximate total result
	// bytes the cache may hold before LRU eviction kicks in (0 =
	// unlimited). Generation invalidation still clears everything.
	CacheMaxBytes int64
}

// Proxy is the query router. It is safe for concurrent use.
type Proxy struct {
	backend endpoint.Executor
	st      *store.Store
	cache   *hvs.Store
	dec     *decomposer.Decomposer
	// eng is the local engine when the backend is one (New); nil for
	// remote backends, where the mutation path (Update) is unavailable.
	eng  *sparql.Engine
	opts Options

	// flights holds the in-progress backend executions for coalescing,
	// keyed by normalized query + generation.
	flMu    sync.Mutex
	flights map[string]*flight

	routeHist [numRoutes]metrics.Histogram
	coalesced metrics.Counter
}

// flight is one in-progress backend execution that concurrent identical
// requests attach to.
type flight struct {
	done chan struct{}
	tab  *sparql.Table
	tr   Trace
	err  error
}

// errLeaderAborted marks a flight whose leader never published a result
// for a reason local to that leader (it panicked mid-execution):
// followers retry instead of inheriting the failure.
var errLeaderAborted = errors.New("proxy: coalescing leader aborted")

// Trace records one answered query for diagnostics and benchmarking.
type Trace struct {
	// Route is the tier that produced the answer.
	Route Route
	// Runtime is the wall-clock execution time of this request.
	Runtime time.Duration
	// Heavy reports whether the answer was classified heavy (never a decomposer's).
	Heavy bool
	// Coalesced reports that this request shared another in-flight
	// request's execution instead of running its own.
	Coalesced bool
}

// New builds a proxy over a local store. The backend executor is the
// generic engine over the same store; use NewWithBackend to route to a
// remote endpoint instead.
func New(st *store.Store, opts Options) *Proxy {
	return NewWithBackend(st, sparql.NewEngine(st), opts)
}

// NewWithBackend builds a proxy whose cache/index tiers use st but whose
// fallback tier is the given executor (e.g. an endpoint.Client for the
// remote-compatibility mode; the decomposer tier should then be disabled
// since local indexes may not mirror the remote data).
func NewWithBackend(st *store.Store, backend endpoint.Executor, opts Options) *Proxy {
	if opts.HeavyThreshold <= 0 {
		opts.HeavyThreshold = hvs.DefaultThreshold
	}
	cache := hvs.New(opts.HeavyThreshold)
	cache.MaxBytes = opts.CacheMaxBytes
	eng, _ := backend.(*sparql.Engine)
	return &Proxy{
		backend: backend,
		st:      st,
		cache:   cache,
		dec:     decomposer.New(st),
		eng:     eng,
		opts:    opts,
		flights: make(map[string]*flight),
	}
}

// Apply routes a mutation delta through the store and carries both cache
// tiers across it before the store publishes it: HVS entries whose
// footprint is disjoint from the net mutation survive and are re-tagged
// to the new generation, cached object expansions the mutation touches
// have it folded into their answer (decomposer.FoldObject; the rest are
// evicted), and the decomposer folds the mutation into its memoized
// aggregates. The store publishes the write inside the HVS's lock and
// then the decomposer's (store.Carry), so a read that sees the new
// generation finds both tiers there, and the store's write lock hands the
// tiers every delta in generation order. Lock order: the store's write
// lock, the HVS's, the decomposer's; reads never nest them.
func (p *Proxy) Apply(d store.Delta) (store.ApplyResult, error) {
	return p.st.Apply(d, p.carryHVS, p.dec.ApplyDelta)
}

// carryHVS is the HVS's store.Carry: it brings the cache from res.From to
// next, the snapshot at res.To, and publishes under the cache's lock.
func (p *Proxy) carryHVS(res store.ApplyResult, next *store.Snapshot, publish func()) {
	dict := p.st.Dict()
	ops := make([]rdf.TripleOp, 0, len(res.NetInserts)+len(res.NetDeletes))
	for _, e := range res.NetInserts {
		ops = append(ops, rdf.Insert(dict.Decode(e)))
	}
	for _, e := range res.NetDeletes {
		ops = append(ops, rdf.Delete(dict.Decode(e)))
	}
	p.cache.ApplyDelta(res.From, res.To, ops, func(e *hvs.Entry) (*sparql.Result, bool) {
		det, ok := e.Shape.(decomposer.ObjectDetection)
		if !ok {
			return nil, false
		}
		return decomposer.FoldObject(next, det, e.Result, res)
	}, publish)
}

// ErrNoUpdate is returned by Update when the proxy fronts a remote
// backend: the local store is a cache/index mirror there, and mutating it
// would silently diverge from the authoritative endpoint. It wraps
// endpoint.ErrReadOnly, so the server answers it with 501.
var ErrNoUpdate = fmt.Errorf("proxy: update requires a local backend: %w", endpoint.ErrReadOnly)

// Update parses a SPARQL Update request, evaluates it (DELETE WHERE
// patterns run against the current snapshot), and applies the whole
// request as one atomic delta through Apply.
func (p *Proxy) Update(ctx context.Context, src string) (store.ApplyResult, error) {
	if p.eng == nil {
		return store.ApplyResult{}, ErrNoUpdate
	}
	u, err := sparql.ParseUpdate(src)
	if err != nil {
		return store.ApplyResult{}, err
	}
	ops, err := p.eng.UpdateOps(ctx, u)
	if err != nil {
		return store.ApplyResult{}, err
	}
	return p.Apply(store.DeltaOf(ops...))
}

// ErrNoExplain is returned by Explain when the proxy fronts a remote
// backend: the plan would describe the local mirror's engine, not the
// endpoint that will actually execute the query. It wraps
// endpoint.ErrReadOnly, so the server answers it with 501.
var ErrNoExplain = fmt.Errorf("proxy: explain requires a local backend: %w", endpoint.ErrReadOnly)

// Explain implements endpoint.Explainer by delegating to the local
// engine. Explain always describes the backend tier's plan — the HVS and
// decomposer tiers may still answer the real query first.
func (p *Proxy) Explain(ctx context.Context, src string) (*sparql.PlanReport, error) {
	if p.eng == nil {
		return nil, ErrNoExplain
	}
	return p.eng.Explain(ctx, src)
}

// request is one read on its way through the tiers: its text, the
// normalized text that keys every cache tier and the flights, its arrival
// time and generation, and its parse, made once by the first tier needing
// it.
type request struct {
	src   string
	text  string
	start time.Time
	gen   uint64
	q     *sparql.Query
	err   error
}

func (p *Proxy) newRequest(src string) request {
	return request{src: src, text: hvs.Normalize(src), start: time.Now(), gen: p.st.Generation()}
}

func (r *request) parse() (*sparql.Query, error) {
	if r.q == nil && r.err == nil {
		r.q, r.err = sparql.Parse(r.src)
	}
	return r.q, r.err
}

// Query implements endpoint.Executor with the three-tier routing.
func (p *Proxy) Query(ctx context.Context, src string) (*sparql.Result, error) {
	res, _, err := p.QueryTraced(ctx, src)
	return res, err
}

// QueryTraced is Query plus the route/runtime trace for the request.
func (p *Proxy) QueryTraced(ctx context.Context, src string) (*sparql.Result, Trace, error) {
	req := p.newRequest(src)
	if h, served := p.tryCacheTiers(&req, ""); served {
		return h.result(), h.tr, nil
	}
	tab, tr, err := p.backendCoalesced(ctx, &req)
	if err != nil {
		return nil, tr, err
	}
	return tab.Result(), tr, nil
}

// QueryBody implements endpoint.BodyExecutor with the three-tier routing:
// the body a cache tier keeps beside its answer in contentType, or else
// the answer as a table (the local engine's, a decomposer rendering's, or
// made from an HVS entry by sparql.TableOf).
func (p *Proxy) QueryBody(ctx context.Context, src, contentType string) (*sparql.Table, []byte, error) {
	req := p.newRequest(src)
	if h, served := p.tryCacheTiers(&req, contentType); served {
		if h.body != nil {
			return nil, h.body, nil
		}
		return h.table(), nil, nil
	}
	tab, _, err := p.backendCoalesced(ctx, &req)
	return tab, nil, err
}

// QueryRows implements sparql.RowExecutor for in-process callers: Query,
// with the answer replayed into sink row by row. The server does not use
// it; it asks QueryBody.
func (p *Proxy) QueryRows(ctx context.Context, src string, sink sparql.RowSink) error {
	res, err := p.Query(ctx, src)
	if err != nil {
		return err
	}
	return sparql.ReplayResult(res, sink)
}

// hit is a cache tier's answer: an HVS entry's result or a decomposer
// rendering, with the body kept beside it for the request's content type
// (nil when none is).
type hit struct {
	res  *sparql.Result
	rend *decomposer.Rendering
	body []byte
	tr   Trace
}

// result is the answer with a map per row: the HVS entry's, or the one a
// rendering builds once and shares.
func (h hit) result() *sparql.Result {
	if h.rend != nil {
		return h.rend.Result()
	}
	return h.res
}

// table is the answer as a table to encode.
func (h hit) table() *sparql.Table {
	if h.rend != nil {
		return h.rend.Table()
	}
	return sparql.TableOf(h.res)
}

// tryCacheTiers answers from the HVS (tier 1) or the decomposer (tier 2)
// when possible, with the body kept beside the answer for contentType.
// served=false means the caller must run the backend tier.
func (p *Proxy) tryCacheTiers(req *request, contentType string) (hit, bool) {
	if cached, body, ok := p.cache.LookupKey(req.text, req.gen, contentType); ok {
		h := hit{res: cached, tr: Trace{Route: RouteHVS, Runtime: time.Since(req.start), Heavy: true}}
		p.record(h.tr)
		h.body = servedBody(contentType, body, h.table, func(b []byte) { p.cache.KeepBodyKey(req.text, cached, contentType, b) })
		return h, true
	}
	r, ok := p.decompose(req)
	if !ok {
		return hit{}, false
	}
	h := hit{rend: r, tr: Trace{Route: RouteDecomposer, Runtime: time.Since(req.start)}}
	p.record(h.tr)
	h.body = servedBody(contentType, r.Body(contentType), r.Table, func(b []byte) { r.KeepBody(contentType, b) })
	return h, true
}

// decompose is tier 2: a text the decomposer rendered is a lookup, any
// other is parsed (a parse error falls through to the backend).
func (p *Proxy) decompose(req *request) (*decomposer.Rendering, bool) {
	if p.opts.DisableDecomposer {
		return nil, false
	}
	if r := p.dec.Lookup(req.text, req.gen); r != nil {
		return r, true
	}
	if q, err := req.parse(); err == nil {
		return p.dec.TryAnswer(q, req.text)
	}
	return nil, false
}

// servedBody returns the body to serve a shared answer with ("" asks for
// none): kept, or on its first serve the answer's table encoded in
// contentType and handed to keep. A body outgrowing endpoint.BodyBytes is
// kept empty, so that later serves do not try again, and served as nil:
// the server encodes it itself.
func servedBody(contentType string, kept []byte, table func() *sparql.Table, keep func([]byte)) []byte {
	if contentType == "" {
		return nil
	}
	if kept == nil {
		kept, _ = endpoint.EncodeBody(table(), contentType)
		if kept == nil {
			kept = []byte{}
		}
		keep(kept)
	}
	if len(kept) == 0 {
		return nil
	}
	return kept
}

// backendDirect runs the backend tier for one flight's leader: the local
// engine answers with ID rows, a remote backend's result is made a table.
func (p *Proxy) backendDirect(ctx context.Context, req *request) (*sparql.Table, Trace, error) {
	var tab *sparql.Table
	var err error
	if p.eng == nil {
		var res *sparql.Result
		if res, err = p.backend.Query(ctx, req.src); err == nil {
			tab = sparql.TableOf(res)
		}
	} else if q, perr := req.parse(); perr != nil {
		err = perr
	} else {
		tab, err = p.eng.ExecuteTable(ctx, q)
	}
	runtime := time.Since(req.start)
	tr := Trace{Route: RouteBackend, Runtime: runtime}
	if err != nil {
		return nil, tr, err
	}
	tr.Heavy = p.recordHeavy(req, tab, runtime)
	p.record(tr)
	return tab, tr, nil
}

// recordHeavy stores a result in the HVS tagged with its dependency
// footprint, so delta-aware invalidation can keep it across disjoint
// writes, and with its Shape (its object-expansion detection), so Apply
// can fold writes into an object expansion. The rows as maps, the
// footprint and the Shape are derived only for a result that will be
// stored (runtime at or above the threshold): doing it for every light
// query would tax the hot path.
//
// The backend binds its own snapshot, so the result is known to be the
// answer at gen only if the store is still at gen once it returns
// (generations only move forward). A result that may already hold a
// later write is not stored: tagged gen, that write's fold would count
// it a second time.
func (p *Proxy) recordHeavy(req *request, tab *sparql.Table, runtime time.Duration) bool {
	if runtime < p.cache.Threshold() {
		return false
	}
	if p.st.Generation() != req.gen {
		return true // heavy, but not known to be the answer at req.gen
	}
	fp, shape := sparql.WildFootprint(), any(nil)
	if q, err := req.parse(); err == nil { // an unparseable (remote dialect) query is never folded
		fp = q.Footprint()
		if det, ok := decomposer.DetectObject(q); ok {
			shape = det
		}
	}
	return p.cache.RecordFootprint(req.src, tab.Result(), runtime, req.gen, fp, shape)
}

// backendCoalesced runs the backend tier, sharing one execution among
// concurrent identical requests. The coalescing identity is the
// normalized text plus the store generation, so requests racing a KB
// update can never share a stale execution.
func (p *Proxy) backendCoalesced(ctx context.Context, req *request) (*sparql.Table, Trace, error) {
	key := fmt.Sprintf("%d\x00%s", req.gen, req.text)
	for {
		tab, tr, err, lead := p.joinOrLead(ctx, key, req.start, func(f *flight) {
			f.tab, f.tr, f.err = p.backendDirect(ctx, req)
		})
		if lead || !p.shouldRetryAsFollower(ctx, err) {
			return tab, tr, err
		}
	}
}

// joinOrLead attaches to the in-progress flight for key, or becomes the
// leader and runs exec. lead reports which role this call played; for
// followers the trace is re-stamped with their own wall-clock time and
// marked Coalesced.
func (p *Proxy) joinOrLead(ctx context.Context, key string, start time.Time, exec func(*flight)) (tab *sparql.Table, tr Trace, err error, lead bool) {
	p.flMu.Lock()
	if f, ok := p.flights[key]; ok {
		p.flMu.Unlock()
		select {
		case <-f.done:
			if f.err != nil {
				return nil, f.tr, f.err, false
			}
			tr := f.tr
			tr.Coalesced = true
			tr.Runtime = time.Since(start)
			p.record(tr)
			return f.tab, tr, nil, false
		case <-ctx.Done():
			return nil, Trace{Route: RouteBackend, Runtime: time.Since(start)}, fmt.Errorf("proxy: %w", ctx.Err()), false
		}
	}
	f := &flight{done: make(chan struct{})}
	p.flights[key] = f
	p.flMu.Unlock()

	// Deferred cleanup so a panicking backend cannot leak the flight: a
	// leaked entry would trap every later identical request on a done
	// channel that never closes. If exec never completed, followers get
	// errLeaderAborted and retry on their own.
	completed := false
	defer func() {
		if !completed {
			f.tab, f.err = nil, errLeaderAborted
		}
		p.flMu.Lock()
		delete(p.flights, key)
		p.flMu.Unlock()
		close(f.done)
	}()
	exec(f)
	completed = true
	return f.tab, f.tr, f.err, true
}

// shouldRetryAsFollower decides whether a follower whose flight failed
// should re-run the query itself: yes when the failure was local to the
// leader (its context died, or its response writer broke) and this
// follower's own context is still alive.
func (p *Proxy) shouldRetryAsFollower(ctx context.Context, err error) bool {
	if err == nil || ctx.Err() != nil {
		return false
	}
	return errors.Is(err, errLeaderAborted) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded)
}

func (p *Proxy) record(tr Trace) {
	p.routeHist[tr.Route].Observe(tr.Runtime)
	if tr.Coalesced {
		p.coalesced.Inc()
	}
}

// HVS exposes the cache tier (for stats and introspection).
func (p *Proxy) HVS() *hvs.Store { return p.cache }

// Decomposer exposes the index tier (for warming).
func (p *Proxy) Decomposer() *decomposer.Decomposer { return p.dec }

// TierMetrics is the proxy half of the /metrics document: per-tier
// latency distributions, route counts (coalesced followers included),
// coalescing savings, the cache tier's counters, and the index tier's
// memo drops and kernel passes.
type TierMetrics struct {
	Routes     map[string]metrics.HistogramSnapshot `json:"routes"`
	Counts     map[string]int                       `json:"counts"`
	Coalesced  uint64                               `json:"coalesced"`
	Cache      hvs.Stats                            `json:"cache"`
	Decomposer decomposer.Stats                     `json:"decomposer"`
}

// MetricsSnapshot captures the proxy's serving metrics.
func (p *Proxy) MetricsSnapshot() TierMetrics {
	m := TierMetrics{
		Routes:     make(map[string]metrics.HistogramSnapshot, numRoutes),
		Counts:     make(map[string]int, numRoutes),
		Coalesced:  p.coalesced.Value(),
		Cache:      p.cache.Stats(),
		Decomposer: p.dec.Stats(),
	}
	for r := Route(0); r < numRoutes; r++ {
		if s := p.routeHist[r].Snapshot(); s.Count > 0 {
			m.Routes[r.String()] = s
			m.Counts[r.String()] = int(s.Count)
		}
	}
	return m
}
