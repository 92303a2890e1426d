// Package router implements the front tier of the read fleet: a
// stateless HTTP router that spreads SPARQL queries over snapshot
// replicas by consistent hash of the normalized query, tracks
// per-replica health, and degrades gracefully when replicas fail.
//
// Robustness model, outermost to innermost:
//
//   - Placement: queries are routed by consistent hash of
//     hvs.Normalize(query) — the same key the caching tier uses — so
//     each replica's HVS/decomposition caches concentrate on a stable
//     shard of the query population.
//   - Health: replicas are probed at /readyz (active) and every proxied
//     request outcome feeds a per-replica three-state circuit breaker
//     (passive). Probes also report the replica's snapshot generation;
//     the router prefers replicas at the newest generation so one
//     replica restarting on an old snapshot cannot answer with stale
//     data while fresh siblings are healthy.
//   - Retries: failures are retried on the next ring replica under a
//     per-request budget with exponential backoff and jitter; 429
//     responses honor the server's Retry-After hint instead of the
//     schedule.
//   - Hedging: if the first attempt has not answered within a
//     p95-derived delay, the same query is hedged to the next ring
//     replica; the first completion wins and the loser is canceled.
//   - Degradation: no fresh replica → scatter to any healthy stale
//     replica (marked with Warning + staleness headers) → optional
//     local embedded fallback → 503.
//
// The router never forwards a truncated streaming body as success: a
// 200 whose stream was cut mid-flight lacks the endpoint's
// completeness trailer (endpoint.CompleteTrailer) and is treated as a
// failed attempt.
//
// All outbound HTTP flows through the netsim seam so the chaos matrix
// can break any router→replica interaction.
package router

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"elinda/internal/endpoint"
	"elinda/internal/hvs"
	"elinda/internal/metrics"
	"elinda/internal/netsim"
)

// StalenessHeader marks a response that was served from somewhere other
// than a fresh replica: "replica" (stale-generation scatter) or "local"
// (embedded fallback store).
const StalenessHeader = "X-Elinda-Staleness"

// ReplicaConfig names one replica endpoint.
type ReplicaConfig struct {
	Name    string
	BaseURL string
}

// Options configures a Router.
type Options struct {
	// Replicas is the fleet the router balances over.
	Replicas []ReplicaConfig
	// Transport is the outbound seam (nil = a fresh netsim.Transport).
	Transport http.RoundTripper
	// ProbeInterval is the /readyz probe cadence for Run (0 = 1s).
	ProbeInterval time.Duration
	// ProbeTimeout bounds each probe request (0 = 2s).
	ProbeTimeout time.Duration
	// RequestTimeout bounds each proxied attempt (0 = 15s).
	RequestTimeout time.Duration
	// RetryBudget is the max number of attempts per request, hedges
	// included (0 = 3).
	RetryBudget int
	// BackoffBase and BackoffMax shape the exponential backoff between
	// retries (0 = 25ms / 1s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// HedgeDelay overrides the p95-derived hedging delay (0 = derive
	// from the router's observed latency distribution).
	HedgeDelay time.Duration
	// DisableHedging turns tail-latency hedging off.
	DisableHedging bool
	// Breaker tunes the per-replica circuit breakers.
	Breaker BreakerConfig
	// VirtualNodes is the consistent-hash vnode count per replica (0 = 64).
	VirtualNodes int
	// Fallback, when set, serves requests locally after every remote
	// tier has failed (the embedded-store degradation rung).
	Fallback http.Handler
	// Logf receives routing decisions worth logging (nil = silent).
	Logf func(format string, args ...any)
}

// member is the router's view of one replica.
type member struct {
	name string
	base string
	br   *breaker

	mu    sync.Mutex
	ready bool
	gen   uint64

	routed    metrics.Counter
	failures  metrics.Counter
	hedged    metrics.Counter
	hedgeWins metrics.Counter
	probeErrs metrics.Counter
}

func (m *member) setHealth(ready bool, gen uint64) {
	m.mu.Lock()
	m.ready = ready
	if ready {
		m.gen = gen
	}
	m.mu.Unlock()
}

func (m *member) health() (bool, uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ready, m.gen
}

// Router is the fleet front tier; it serves /sparql by proxying to
// replicas. Use Handler for the full HTTP surface.
type Router struct {
	opts    Options
	client  *http.Client
	members []*member
	ring    *ring
	now     func() time.Time

	rngMu sync.Mutex
	rng   *rand.Rand

	requests    metrics.Counter
	retries     metrics.Counter
	hedges      metrics.Counter
	hedgeWins   metrics.Counter
	shed429     metrics.Counter
	truncations metrics.Counter
	scatters    metrics.Counter
	localFalls  metrics.Counter
	unavailable metrics.Counter
	probes      metrics.Counter
	latency     metrics.Histogram
}

// New returns a Router over the configured replicas. All replicas start
// unknown (not ready); call ProbeNow or Run to establish health.
func New(opts Options) *Router {
	if opts.ProbeInterval <= 0 {
		opts.ProbeInterval = time.Second
	}
	if opts.ProbeTimeout <= 0 {
		opts.ProbeTimeout = 2 * time.Second
	}
	if opts.RequestTimeout <= 0 {
		opts.RequestTimeout = 15 * time.Second
	}
	if opts.RetryBudget <= 0 {
		opts.RetryBudget = 3
	}
	if opts.BackoffBase <= 0 {
		opts.BackoffBase = 25 * time.Millisecond
	}
	if opts.BackoffMax <= 0 {
		opts.BackoffMax = time.Second
	}
	if opts.Transport == nil {
		opts.Transport = netsim.New(nil)
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	rt := &Router{
		opts:   opts,
		client: &http.Client{Transport: opts.Transport},
		now:    time.Now,
		rng:    rand.New(rand.NewSource(time.Now().UnixNano())),
	}
	for _, rc := range opts.Replicas {
		rt.members = append(rt.members, &member{
			name: rc.Name,
			base: strings.TrimSuffix(rc.BaseURL, "/"),
			br:   newBreaker(opts.Breaker, func() time.Time { return rt.now() }),
		})
	}
	rt.ring = newRing(len(rt.members), opts.VirtualNodes, func(i int) string { return rt.members[i].name })
	return rt
}

// Run probes the fleet until ctx is done.
func (rt *Router) Run(ctx context.Context) {
	t := time.NewTicker(rt.opts.ProbeInterval)
	defer t.Stop()
	rt.ProbeNow(ctx)
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			rt.ProbeNow(ctx)
		}
	}
}

// ProbeNow probes every replica's /readyz once, in parallel, and
// updates health and generation. A successful probe also closes the
// replica's breaker: an active readiness confirmation outranks stale
// passive failure counts. Exported so tests (and operators via a future
// admin hook) can drive health deterministically instead of waiting a
// probe period.
func (rt *Router) ProbeNow(ctx context.Context) {
	var wg sync.WaitGroup
	for _, m := range rt.members {
		wg.Add(1)
		go func(m *member) {
			defer wg.Done()
			rt.probeOne(ctx, m)
		}(m)
	}
	wg.Wait()
	rt.probes.Inc()
}

func (rt *Router) probeOne(ctx context.Context, m *member) {
	pctx, cancel := context.WithTimeout(ctx, rt.opts.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, m.base+"/readyz", nil)
	if err != nil {
		m.setHealth(false, 0)
		return
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		m.probeErrs.Inc()
		m.setHealth(false, 0)
		return
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		m.probeErrs.Inc()
		m.setHealth(false, 0)
		return
	}
	var gen uint64
	fmt.Sscanf(string(body), "ready generation=%d", &gen)
	m.setHealth(true, gen)
	m.br.success()
}

// tiers partitions the ring preference order for key into the fresh
// tier (ready replicas at the newest generation any ready replica
// holds) and the stale tier (ready replicas behind it). Breaker state
// is NOT consulted here — admission is claimed per attempt, because a
// half-open breaker grants exactly one trial.
func (rt *Router) tiers(key string) (fresh, stale []*member) {
	order := rt.ring.order(key)
	var maxGen uint64
	for _, i := range order {
		if ready, gen := rt.members[i].health(); ready && gen > maxGen {
			maxGen = gen
		}
	}
	for _, i := range order {
		m := rt.members[i]
		ready, gen := m.health()
		if !ready {
			continue
		}
		if gen == maxGen {
			fresh = append(fresh, m)
		} else {
			stale = append(stale, m)
		}
	}
	return fresh, stale
}

// attemptResult is one fully-read upstream response, safe to relay or
// discard (hedging and retries need response bodies that can lose).
type attemptResult struct {
	status int
	header http.Header
	body   []byte
}

// retryable reports whether an outcome should burn retry budget rather
// than be relayed: transport errors and truncations arrive as err;
// 5xx means the replica is unhealthy; 429 means it is shedding load.
// Everything else — including 4xx, which is a property of the query,
// not the replica — relays as-is.
func retryable(res *attemptResult, err error) bool {
	return err != nil || res.status == http.StatusTooManyRequests || res.status >= 500
}

// attempt proxies the query to one replica and reads the whole
// response. A 200 streaming response without the completeness trailer
// is an error, never a result: the fleet's contract is that truncation
// is loud.
func (rt *Router) attempt(ctx context.Context, m *member, query, accept string) (*attemptResult, error) {
	actx, cancel := context.WithTimeout(ctx, rt.opts.RequestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodGet,
		m.base+"/sparql?query="+url.QueryEscape(query), nil)
	if err != nil {
		return nil, err
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	m.routed.Inc()
	resp, err := rt.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("router: %s: %w", m.name, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		rt.truncations.Inc()
		return nil, fmt.Errorf("router: %s: body: %w", m.name, err)
	}
	if resp.StatusCode == http.StatusOK && announcedTrailer(resp) &&
		resp.Trailer.Get(endpoint.CompleteTrailer) != "1" {
		rt.truncations.Inc()
		return nil, fmt.Errorf("router: %s: stream truncated (missing %s trailer)", m.name, endpoint.CompleteTrailer)
	}
	return &attemptResult{status: resp.StatusCode, header: resp.Header.Clone(), body: body}, nil
}

// announcedTrailer reports whether the response declared the
// completeness trailer. Only streams that promised it are held to it:
// buffered responses are length-framed and need no trailer.
func announcedTrailer(resp *http.Response) bool {
	if resp.Trailer != nil {
		if _, ok := resp.Trailer[http.CanonicalHeaderKey(endpoint.CompleteTrailer)]; ok {
			return true
		}
	}
	for _, v := range resp.Header.Values("Trailer") {
		for _, f := range strings.Split(v, ",") {
			if strings.EqualFold(strings.TrimSpace(f), endpoint.CompleteTrailer) {
				return true
			}
		}
	}
	return false
}

// hedgeDelay returns how long the primary attempt may run before a
// hedge launches: the configured override, or the router's observed
// p95 latency (a request slower than p95 is, by definition, in the
// tail worth hedging), with a small floor before any history exists.
func (rt *Router) hedgeDelay() time.Duration {
	if rt.opts.HedgeDelay > 0 {
		return rt.opts.HedgeDelay
	}
	if p95 := rt.latency.Snapshot().P95; p95 > 0 {
		return p95
	}
	return 25 * time.Millisecond
}

type outcome struct {
	res *attemptResult
	m   *member
	err error
}

// hedgedAttempt runs the query on primary and, if it has not resolved
// within the hedge delay, also on hedge (nil = no hedging). The first
// non-retryable outcome wins and the other leg is canceled; if both
// legs resolve retryable, the "best" loss (a relayable 429 beats a
// transport error) is returned. attempts reports how many legs ran.
func (rt *Router) hedgedAttempt(ctx context.Context, primary, hedge *member, query, accept string) (out outcome, attempts int) {
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ch := make(chan outcome, 2)
	launch := func(m *member) {
		go func() {
			res, err := rt.attempt(hctx, m, query, accept)
			ch <- outcome{res: res, m: m, err: err}
		}()
	}
	launch(primary)
	launched := 1
	var timerC <-chan time.Time
	if hedge != nil && !rt.opts.DisableHedging {
		t := time.NewTimer(rt.hedgeDelay())
		defer t.Stop()
		timerC = t.C
	}
	var last outcome
	for received := 0; received < launched; {
		select {
		case o := <-ch:
			received++
			if !retryable(o.res, o.err) {
				if launched > 1 && o.m == hedge {
					rt.hedgeWins.Inc()
					hedge.hedgeWins.Inc()
				}
				return o, launched
			}
			if o.err != nil || (o.res != nil && o.res.status >= 500) {
				o.m.failures.Inc()
				o.m.br.failure()
			}
			// Prefer keeping a relayable response (429) over an error.
			if last.res == nil || o.res != nil {
				last = o
			}
		case <-timerC:
			timerC = nil
			if hedge.br.allow() {
				rt.hedges.Inc()
				hedge.hedged.Inc()
				launch(hedge)
				launched++
			}
		case <-ctx.Done():
			return outcome{err: ctx.Err()}, launched
		}
	}
	return last, launched
}

// tryTier walks one tier of candidates under the retry budget,
// returning the first relayable outcome. budget is decremented in
// place so the stale tier inherits what the fresh tier left.
func (rt *Router) tryTier(ctx context.Context, tier []*member, budget *int, query, accept string) (outcome, bool) {
	var last outcome
	backoff := rt.opts.BackoffBase
	for i := 0; i < len(tier) && *budget > 0; i++ {
		m := tier[i]
		if !m.br.allow() {
			continue
		}
		var hedge *member
		if i+1 < len(tier) {
			hedge = tier[i+1]
		}
		o, attempts := rt.hedgedAttempt(ctx, m, hedge, query, accept)
		*budget -= attempts
		if attempts > 1 && hedge != nil {
			// The hedge leg consumed the next candidate's turn.
			i++
		}
		if !retryable(o.res, o.err) {
			o.m.br.success()
			return o, true
		}
		if o.err == nil && o.res != nil && o.res.status == http.StatusTooManyRequests {
			// Load shedding, not failure: the replica is alive. Honor its
			// backoff hint for the next attempt and keep the response — if
			// the budget runs dry it relays so the client can back off too.
			rt.shed429.Inc()
			o.m.br.success()
			if *budget > 0 {
				rt.sleep(ctx, retryAfterHint(o.res, backoff))
			}
		} else if *budget > 0 {
			rt.retries.Inc()
			rt.sleep(ctx, rt.jitter(backoff))
		}
		backoff *= 2
		if backoff > rt.opts.BackoffMax {
			backoff = rt.opts.BackoffMax
		}
		last = o
		if ctx.Err() != nil {
			break
		}
	}
	return last, false
}

// retryAfterHint converts a 429's Retry-After header into a wait,
// falling back to the schedule's backoff when absent or unparseable.
func retryAfterHint(res *attemptResult, fallback time.Duration) time.Duration {
	if s := res.header.Get("Retry-After"); s != "" {
		if secs, err := strconv.Atoi(strings.TrimSpace(s)); err == nil && secs >= 0 {
			return time.Duration(secs) * time.Second
		}
	}
	return fallback
}

func (rt *Router) jitter(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	rt.rngMu.Lock()
	j := rt.rng.Int63n(int64(d))
	rt.rngMu.Unlock()
	return d/2 + time.Duration(j/2)
}

// sleep waits d or until ctx is done.
func (rt *Router) sleep(ctx context.Context, d time.Duration) {
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// ServeHTTP routes one SPARQL request through the degradation ladder:
// fresh tier → stale tier (Warning + staleness headers) → local
// fallback → 503.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var query string
	switch r.Method {
	case http.MethodGet:
		query = r.URL.Query().Get("query")
	case http.MethodPost:
		if err := r.ParseForm(); err != nil {
			http.Error(w, "bad form: "+err.Error(), http.StatusBadRequest)
			return
		}
		query = r.PostForm.Get("query")
	default:
		w.Header().Set("Allow", "GET, POST")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if query == "" {
		http.Error(w, "missing query parameter", http.StatusBadRequest)
		return
	}
	rt.requests.Inc()
	start := rt.now()
	defer func() { rt.latency.Observe(time.Since(start)) }()

	accept := r.Header.Get("Accept")
	key := hvs.Normalize(query)
	fresh, stale := rt.tiers(key)
	ctx := r.Context()
	budget := rt.opts.RetryBudget

	if o, ok := rt.tryTier(ctx, fresh, &budget, query, accept); ok {
		rt.relay(w, o, "")
		return
	} else if o.res != nil && o.res.status == http.StatusTooManyRequests {
		// Every fresh replica is shedding: relay the 429 so the client
		// backs off — stale data is not the answer to overload.
		rt.relay(w, o, "")
		return
	}

	if len(stale) > 0 && budget <= 0 {
		budget = 1 // the scatter rung always gets one shot
	}
	if o, ok := rt.tryTier(ctx, stale, &budget, query, accept); ok {
		rt.scatters.Inc()
		rt.opts.Logf("router: served %q from stale replica %s", key, o.m.name)
		rt.relay(w, o, "replica")
		return
	}

	if rt.opts.Fallback != nil {
		rt.localFalls.Inc()
		rt.opts.Logf("router: serving %q from local fallback", key)
		w.Header().Set("Warning", `110 elinda-router "stale content: served from local fallback"`)
		w.Header().Set(StalenessHeader, "local")
		rt.opts.Fallback.ServeHTTP(w, r)
		return
	}

	rt.unavailable.Inc()
	w.Header().Set("Retry-After", "1")
	http.Error(w, "no replica available", http.StatusServiceUnavailable)
}

// relay writes a fully-read upstream response to the client.
// staleness, when non-empty, marks the response as degraded.
func (rt *Router) relay(w http.ResponseWriter, o outcome, staleness string) {
	h := w.Header()
	for _, k := range []string{"Content-Type", "Retry-After"} {
		if v := o.res.header.Get(k); v != "" {
			h.Set(k, v)
		}
	}
	h.Set("Content-Length", strconv.Itoa(len(o.res.body)))
	h.Set("X-Elinda-Replica", o.m.name)
	if staleness != "" {
		h.Set("Warning", `110 elinda-router "stale content: replica behind newest generation"`)
		h.Set(StalenessHeader, staleness)
	}
	w.WriteHeader(o.res.status)
	w.Write(o.res.body)
}

// Handler returns the router's full HTTP surface: /sparql (routed),
// /readyz (ready when any replica is healthy or a fallback exists),
// /healthz and /metrics.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/sparql", rt)
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		for _, m := range rt.members {
			if ready, _ := m.health(); ready {
				fmt.Fprintln(w, "ready")
				return
			}
		}
		if rt.opts.Fallback != nil {
			fmt.Fprintln(w, "ready (local fallback only)")
			return
		}
		http.Error(w, "not ready: no healthy replica", http.StatusServiceUnavailable)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		healthy := 0
		for _, m := range rt.members {
			if ready, _ := m.health(); ready {
				healthy++
			}
		}
		fmt.Fprintf(w, "ok replicas=%d/%d\n", healthy, len(rt.members))
	})
	return endpoint.Ops(mux, rt.opts.Logf, func(doc map[string]any) {
		doc["router"] = rt.MetricsSnapshot()
	})
}

// ReplicaStatus is one replica's row in the router metrics.
type ReplicaStatus struct {
	Name          string `json:"name"`
	Ready         bool   `json:"ready"`
	Generation    uint64 `json:"generation"`
	Breaker       string `json:"breaker"`
	BreakerOpens  uint64 `json:"breaker_opens"`
	Routed        uint64 `json:"routed"`
	Failures      uint64 `json:"failures"`
	Hedged        uint64 `json:"hedged"`
	HedgeWins     uint64 `json:"hedge_wins"`
	ProbeFailures uint64 `json:"probe_failures"`
}

// RouterMetrics is the router's /metrics document.
type RouterMetrics struct {
	Requests       uint64                    `json:"requests"`
	Retries        uint64                    `json:"retries"`
	Hedges         uint64                    `json:"hedges"`
	HedgeWins      uint64                    `json:"hedge_wins"`
	Shed429        uint64                    `json:"shed_429"`
	Truncations    uint64                    `json:"truncations"`
	StaleScatters  uint64                    `json:"stale_scatters"`
	LocalFallbacks uint64                    `json:"local_fallbacks"`
	Unavailable503 uint64                    `json:"unavailable_503"`
	ProbeRounds    uint64                    `json:"probe_rounds"`
	Latency        metrics.HistogramSnapshot `json:"latency"`
	Replicas       []ReplicaStatus           `json:"replicas"`
}

// MetricsSnapshot captures the router's counters.
func (rt *Router) MetricsSnapshot() RouterMetrics {
	rm := RouterMetrics{
		Requests:       rt.requests.Value(),
		Retries:        rt.retries.Value(),
		Hedges:         rt.hedges.Value(),
		HedgeWins:      rt.hedgeWins.Value(),
		Shed429:        rt.shed429.Value(),
		Truncations:    rt.truncations.Value(),
		StaleScatters:  rt.scatters.Value(),
		LocalFallbacks: rt.localFalls.Value(),
		Unavailable503: rt.unavailable.Value(),
		ProbeRounds:    rt.probes.Value(),
		Latency:        rt.latency.Snapshot(),
	}
	for _, m := range rt.members {
		ready, gen := m.health()
		rm.Replicas = append(rm.Replicas, ReplicaStatus{
			Name:          m.name,
			Ready:         ready,
			Generation:    gen,
			Breaker:       m.br.current().String(),
			BreakerOpens:  m.br.openCount(),
			Routed:        m.routed.Value(),
			Failures:      m.failures.Value(),
			Hedged:        m.hedged.Value(),
			HedgeWins:     m.hedgeWins.Value(),
			ProbeFailures: m.probeErrs.Value(),
		})
	}
	return rm
}
