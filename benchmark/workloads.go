package main

import (
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// clients is the number of closed-loop clients, each on its own
// keep-alive connection (nproc of the reference box is 2).
const clients = 2

// routeAssertScale is the smallest -scale at which the route-share
// assertions are enforced: below it the hot queries finish under the
// 5 ms heaviness threshold, so the cache tiers are rightly never filled.
const routeAssertScale = 10000

// minUpdatesPerSecond is the write rate below which mixed_rw has not
// done what it says (the reference box acknowledges about 15/s).
const minUpdatesPerSecond = 5

// workload is one traffic mix against its own server process.
type workload struct {
	name  string
	needs needs
	// heavy is the server's -heavy threshold (0 = the program's default).
	heavy time.Duration
	// flags are the server's command line after -addr and -heavy.
	flags func(d *dataset) []string
	// scripts builds one request script per client.
	scripts func(d *dataset, clients int) []script
	// preflight validates decoded answers once per measured boot.
	preflight func(c *client, d *dataset) error
	// asserts lists what the /metrics deltas of the window contradict
	// about the workload's stated purpose.
	asserts func(m metricsDelta, scale int, seconds float64) []string
}

func workloads() []workload {
	snapshot := func(d *dataset) []string { return []string{"-snapshot-load", d.snap} }
	return []workload{
		{
			name:      "explore_api",
			needs:     needs{nt: true},
			flags:     func(d *dataset) []string { return []string{"-load", d.nt} },
			scripts:   exploreScripts,
			preflight: checkExplore,
			asserts: func(m metricsDelta, _ int, _ float64) []string {
				if n := m.hvs + m.decomposer + m.backend + m.coalesced; n != 0 {
					return []string{fmt.Sprintf("explore_api moved the proxy route counters by %d; the /api handlers must not reach the proxy", n)}
				}
				return nil
			},
		},
		{
			name:      "sparql_backend",
			needs:     needs{snap: true},
			flags:     snapshot,
			scripts:   backendScripts,
			preflight: checkBackend,
			asserts: func(m metricsDelta, _ int, _ float64) []string {
				var out []string
				if share := ratio(m.backend, m.reads()); share < 0.95 {
					out = append(out, fmt.Sprintf("sparql_backend: backend answered %.3f of reads, want >= 0.95", share))
				}
				if m.cacheHits != 0 {
					out = append(out, fmt.Sprintf("sparql_backend: %d HVS hits, want 0", m.cacheHits))
				}
				return out
			},
		},
		{
			name:      "sparql_hot",
			needs:     needs{snap: true},
			heavy:     5 * time.Millisecond,
			flags:     snapshot,
			scripts:   hotScripts,
			preflight: checkHot,
			asserts: func(m metricsDelta, scale int, _ float64) []string {
				if share := m.cacheAnswerRatio(); share < 0.90 && scale >= routeAssertScale {
					return []string{fmt.Sprintf("sparql_hot: hvs+decomposer answered %.3f of reads, want >= 0.90", share)}
				}
				return nil
			},
		},
		{
			name:  "mixed_rw",
			needs: needs{snap: true, wal: true},
			heavy: 5 * time.Millisecond,
			flags: func(d *dataset) []string {
				return append(snapshot(d), "-wal-dir", d.walDir, "-wal-sync", "always")
			},
			scripts:   mixedScripts,
			preflight: checkHot,
			asserts: func(m metricsDelta, _ int, seconds float64) []string {
				// Enough writes for the durability check to mean something.
				// (The issue's 1 000 in 30 s is out of reach: at 1.1 M
				// triples one round of 8 reads and 2 writes takes 250 ms.)
				if want := int(seconds * minUpdatesPerSecond); m.updates < want {
					return []string{fmt.Sprintf("mixed_rw: %d updates acknowledged in %.0f s, want >= %d", m.updates, seconds, want)}
				}
				return nil
			},
		},
	}
}

// serverFlags is the workload's whole command line after -addr.
func (w workload) serverFlags(d *dataset) []string {
	flags := w.flags(d)
	if w.heavy > 0 {
		flags = append(flags, "-heavy", w.heavy.String())
	}
	return flags
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricsDelta is what the server's own counters say happened between
// two /metrics scrapes.
type metricsDelta struct {
	hvs, decomposer, backend, coalesced int
	cacheHits                           int
	deltaRetained, deltaEvicted         int
	updates                             int
	walSyncs                            int
}

func (m metricsDelta) reads() int { return m.hvs + m.decomposer + m.backend }

// cacheAnswerRatio is useful outcomes over attempts for the two cache
// tiers: reads they answered / reads that passed through the proxy.
func (m metricsDelta) cacheAnswerRatio() float64 { return ratio(m.hvs+m.decomposer, m.reads()) }

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func delta(before, after serverMetrics) metricsDelta {
	c := func(name string) int { return after.Proxy.Counts[name] - before.Proxy.Counts[name] }
	return metricsDelta{
		hvs: c("hvs"), decomposer: c("decomposer"), backend: c("backend"),
		coalesced:     after.Proxy.Coalesced - before.Proxy.Coalesced,
		cacheHits:     after.Proxy.Cache.Hits - before.Proxy.Cache.Hits,
		deltaRetained: after.Proxy.Cache.DeltaRetained - before.Proxy.Cache.DeltaRetained,
		deltaEvicted:  after.Proxy.Cache.DeltaEvictions - before.Proxy.Cache.DeltaEvictions,
		updates:       after.Server.Updates - before.Server.Updates,
		walSyncs:      after.WAL.Syncs - before.WAL.Syncs,
	}
}

// e2e is the outcome of one workload's measured window.
type e2e struct {
	setupS       []float64 // one per boot
	opMS         []float64
	stepMS       map[string][]float64
	opsPerS      float64 // summed over the clients
	window       time.Duration
	peakRSSMB    float64
	attempted    int
	failed       int
	errs         []string
	metrics      metricsDelta
	walReplayMS  float64
	walReplayed  int
	storeTriples int
	scriptSHA    string
	flags        []string
	// verified counts the acknowledged writes checked after the SIGKILL
	// reboot; lost is how many of them were missing.
	verified, lost int
}

// fail records one failed check as one attempted, failed op.
func (r *e2e) fail(format string, args ...any) {
	r.failed++
	r.attempted++
	if len(r.errs) < 10 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// runE2E boots the workload's server boots times (the last boot serves
// the window), validates it, warms it up and measures one window. It
// must run on the main goroutine (see startServer).
func runE2E(env *environment, w workload, d *dataset, boots int, warmup, window time.Duration) (*e2e, error) {
	res := &e2e{window: window, flags: w.serverFlags(d), stepMS: map[string][]float64{}}
	scripts := w.scripts(d, clients)
	res.scriptSHA = scriptHash(d, scripts)

	var srv *server
	defer func() { srv.kill() }()
	for b := 0; b < boots; b++ {
		srv.kill()
		var err error
		srv, err = startServer(env.serverBin, res.flags, filepath.Join(env.outDir, fmt.Sprintf("server.%s.boot%d.log", w.name, b)))
		if err != nil {
			return nil, err
		}
		res.setupS = append(res.setupS, srv.setup.Seconds())
	}

	known := newAnswers()
	pre := newClient(srv.base, known)
	if err := w.preflight(pre, d); err != nil {
		res.fail("preflight: %v", err)
	}
	pre.close()

	// Closed loop: warm-up, then the window, on clients goroutines.
	start := time.Now()
	measureFrom, until := start.Add(warmup), start.Add(warmup+window)
	out := make([]samples, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := newClient(srv.base, known)
			defer cl.close()
			out[c] = runClosedLoop(cl, scripts[c], measureFrom, until)
		}()
	}
	time.Sleep(time.Until(measureFrom))
	before, err := srv.metrics()
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	wg.Wait()
	after, err := srv.metrics()
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	if res.peakRSSMB, err = srv.peakRSSMB(); err != nil {
		return nil, err
	}
	res.metrics = delta(before, after)
	res.walReplayMS = float64(after.WAL.ReplayNS) / 1e6
	res.walReplayed = after.WAL.ReplayedRecords
	res.storeTriples = after.Store.Triples

	acked := map[string]bool{}
	for _, s := range out {
		res.opMS = append(res.opMS, s.opMS...)
		for kind, xs := range s.stepMS {
			res.stepMS[kind] = append(res.stepMS[kind], xs...)
		}
		res.opsPerS += s.opsPerS
		res.attempted += s.attempted
		res.failed += s.failed
		res.errs = append(res.errs, s.errs...)
		for t, present := range s.acked {
			acked[t] = present
		}
	}
	for _, violated := range w.asserts(res.metrics, d.scale, window.Seconds()) {
		res.fail("%s", violated)
	}

	if len(acked) > 0 {
		srv, err = verifyDurability(env, w, srv, res, acked)
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// verifyDurability is the crash half of mixed_rw: it records what the
// cache answers for the hot set, SIGKILLs the server, reboots it from the
// snapshot and the WAL, and then (a) counts every acknowledged write
// whose final state the rebooted store does not show as a failed op and
// (b) requires the pre-crash cached answers to equal freshly computed
// ones, which catches a cache entry that survived a write it should not
// have. SIGKILL leaves the OS page cache intact, so this proves
// "acknowledged implies logged", not that fsync reached the device.
func verifyDurability(env *environment, w workload, srv *server, res *e2e, acked map[string]bool) (*server, error) {
	cl := newClient(srv.base, newAnswers())
	cached := hotAnswers(cl, res, "pre-crash")
	cl.close()

	srv.kill()
	srv, err := startServer(env.serverBin, res.flags, filepath.Join(env.outDir, "server."+w.name+".reboot.log"))
	if err != nil {
		return nil, fmt.Errorf("reboot after SIGKILL: %w", err)
	}
	cl = newClient(srv.base, newAnswers())
	defer cl.close()
	triples := make([]string, 0, len(acked))
	for t := range acked {
		triples = append(triples, t)
	}
	sort.Strings(triples)
	for _, t := range triples {
		res.verified++
		if _, _, err := cl.do(askRequest(t, acked[t])); err != nil {
			res.lost++
			res.fail("acknowledged write missing after SIGKILL reboot: %v", err)
		} else {
			res.attempted++
		}
	}
	for i, fresh := range hotAnswers(cl, res, "post-reboot") {
		if fresh != cached[i] {
			res.fail("%s: the answer served before the crash differs from a fresh one over the same data (stale cache entry?)", hotSet()[i].key)
		}
	}
	return srv, nil
}

// hotAnswers fetches the hot set and returns each answer as canonical
// rows ("" for one that could not be read, which is recorded as a failure).
func hotAnswers(cl *client, res *e2e, phase string) []string {
	hot := hotSet()
	out := make([]string, len(hot))
	for i, q := range hot {
		name := q.key
		q.key = "" // the data differs from the window's first answers
		body, _, err := cl.do(q)
		if err == nil {
			out[i], err = canonicalRows(body)
		}
		if err != nil {
			res.fail("%s read of %s: %v", phase, name, err)
		}
	}
	return out
}
