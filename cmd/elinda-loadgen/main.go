// Command elinda-loadgen is a closed-loop load generator for the eLinda
// serving tier. It drives a /sparql endpoint with a configurable worker
// pool and a hot/cold query mix — the hot set is a handful of heavy
// property-expansion queries (the paper's interactive-exploration
// workload, exactly what the HVS and request coalescing exist for), the
// cold set is a stream of distinct cheap lookups that can never hit the
// cache — and reports throughput and latency quantiles. With -write-mix
// a fraction of requests become SPARQL updates (INSERT DATA / DELETE
// DATA POSTed to /sparql), exercising the live mutation path and the
// delta-aware cache invalidation under read load.
//
// With no -url it is self-contained: it builds the bundled synthetic
// dataset, mounts the full serving stack (proxy with HVS + coalescing
// behind the admission-controlled streaming endpoint) on a loopback
// listener, runs the load twice — once with the HVS on, once with it
// off (the backend tier alone, still coalescing) — and writes the comparison (including the
// cached-vs-uncached throughput speedup) to BENCH_serve.json:
//
//	elinda-loadgen -concurrency 32 -duration 5s -mix 0.9
//	elinda-loadgen -url http://host:8080/sparql -duration 30s
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"elinda"
	"elinda/internal/core"
	"elinda/internal/datagen"
	"elinda/internal/endpoint"
	"elinda/internal/proxy"
	"elinda/internal/rdf"
	"elinda/internal/router"
)

func main() {
	var (
		target         = flag.String("url", "", "target /sparql endpoint (empty = self-serve an in-process server)")
		persons        = flag.Int("persons", 2000, "self-serve synthetic dataset size")
		concurrency    = flag.Int("concurrency", 16, "closed-loop worker count")
		duration       = flag.Duration("duration", 5*time.Second, "run length per pass")
		mix            = flag.Float64("mix", 0.9, "fraction of requests drawn from the hot heavy-query set")
		writeMix       = flag.Float64("write-mix", 0, "fraction of requests that are SPARQL updates (INSERT DATA / DELETE DATA POSTed to /sparql)")
		hotN           = flag.Int("hot", 4, "number of distinct hot queries")
		format         = flag.String("format", "json", "result format to request: json | tsv")
		heavy          = flag.Duration("heavy", time.Millisecond, "self-serve HVS heaviness threshold")
		maxInflight    = flag.Int64("max-inflight", 0, "self-serve admission capacity (0 = unlimited)")
		acquireTimeout = flag.Duration("acquire-timeout", 100*time.Millisecond, "self-serve admission wait budget")
		ablate         = flag.Bool("ablate", true, "self-serve only: add a cache-disabled pass and compute the speedup")
		jsonOut        = flag.String("json-out", "BENCH_serve.json", "machine-readable output path (empty = none)")
		seed           = flag.Int64("seed", 1, "workload random seed")

		fleetMode  = flag.Bool("fleet", false, "drive an in-process snapshot-replicated fleet through its router, with a replica-kill schedule")
		fleetN     = flag.Int("fleet-size", 3, "-fleet: number of read replicas")
		killPeriod = flag.Duration("kill-period", 2*time.Second, "-fleet: interval between replica kills")
		killDown   = flag.Duration("kill-down", 500*time.Millisecond, "-fleet: how long a killed replica stays partitioned")
	)
	flag.Parse()
	log.SetFlags(0)

	accept := endpoint.ContentType
	if *format == "tsv" {
		accept = endpoint.ContentTypeTSV
	}

	report := serveReport{
		Experiment:  "serve",
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Concurrency: *concurrency,
		DurationS:   duration.Seconds(),
		HotFraction: *mix,
		HotQueries:  *hotN,
		Format:      *format,
	}

	gen := workload{hot: hotQueries(*hotN), mix: *mix, writeMix: *writeMix, seed: *seed}
	report.WriteMix = *writeMix

	if *fleetMode {
		report.Experiment = "fleet-load"
		runFleetLoad(&report, gen, accept, fleetLoadConfig{
			persons:     *persons,
			replicas:    *fleetN,
			concurrency: *concurrency,
			duration:    *duration,
			killPeriod:  *killPeriod,
			killDown:    *killDown,
		})
	} else if *target != "" {
		fmt.Printf("== elinda-loadgen: %s (C=%d, %s, hot mix %.2f) ==\n", *target, *concurrency, duration, *mix)
		pass := runPass("remote", *target, accept, gen, *concurrency, *duration)
		pass.print()
		report.Passes = append(report.Passes, pass)
	} else {
		fmt.Printf("== elinda-loadgen: self-serve (persons=%d, C=%d, %s, hot mix %.2f) ==\n",
			*persons, *concurrency, duration, *mix)
		sys, srv, httpSrv, addr := selfServe(*persons, *heavy, *maxInflight, *acquireTimeout)
		defer httpSrv.Close()
		report.Triples = sys.Store.Len()
		fmt.Printf("dataset: %d triples, serving on %s\n\n", sys.Store.Len(), addr)

		// Pass 1: the serving tier with the HVS on. The decomposer is off
		// and backend coalescing on in BOTH passes, so the measured speedup
		// is attributable to the cache alone.
		sys.Proxy.SetOptions(proxy.Options{
			HeavyThreshold:    *heavy,
			DisableDecomposer: true,
		})
		sys.Proxy.HVS().Invalidate()
		served := runPass("cache+coalescing", addr, accept, gen, *concurrency, *duration)
		served.CacheStats = statsOf(sys)
		served.print()
		report.Passes = append(report.Passes, served)

		if *ablate {
			sys.Proxy.SetOptions(proxy.Options{
				HeavyThreshold:    *heavy,
				DisableHVS:        true,
				DisableDecomposer: true,
			})
			sys.Proxy.HVS().Invalidate()
			ablated := runPass("backend-only", addr, accept, gen, *concurrency, *duration)
			ablated.print()
			report.Passes = append(report.Passes, ablated)
			if ablated.ThroughputRPS > 0 {
				report.Speedup = served.ThroughputRPS / ablated.ThroughputRPS
				fmt.Printf("\nserving-tier speedup (cache+coalescing vs backend-only): %.1fx\n", report.Speedup)
			}
		}
		report.Metrics = srv.MetricsSnapshot()
	}

	if *jsonOut != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nwrote %s\n", *jsonOut)
	}
}

// serveReport is the machine-readable BENCH_serve.json document.
type serveReport struct {
	Experiment  string                 `json:"experiment"`
	GeneratedAt string                 `json:"generated_at"`
	Triples     int                    `json:"triples,omitempty"`
	Concurrency int                    `json:"concurrency"`
	DurationS   float64                `json:"duration_s"`
	HotFraction float64                `json:"hot_fraction"`
	WriteMix    float64                `json:"write_mix,omitempty"`
	HotQueries  int                    `json:"hot_queries"`
	Format      string                 `json:"format"`
	Passes      []passReport           `json:"passes"`
	Speedup     float64                `json:"speedup,omitempty"`
	Metrics     endpoint.ServerMetrics `json:"server_metrics,omitzero"`
	Router      *router.RouterMetrics  `json:"router_metrics,omitempty"`
}

type passReport struct {
	Name     string `json:"name"`
	Requests int    `json:"requests"`
	// Attempts counts every issued request; ShedRate is the fraction the
	// server answered 429 — reported separately from errors because a
	// shed is the admission controller working, not the service failing.
	Attempts      int     `json:"attempts"`
	ShedRate      float64 `json:"shed_rate"`
	Errors        int     `json:"errors"`
	Rejected429   int     `json:"rejected_429"`
	Timeout504    int     `json:"timeout_504"`
	ThroughputRPS float64 `json:"throughput_rps"`
	MeanNs        int64   `json:"mean_ns"`
	P50Ns         int64   `json:"p50_ns"`
	P95Ns         int64   `json:"p95_ns"`
	P99Ns         int64   `json:"p99_ns"`
	BytesRead     int64   `json:"bytes_read"`
	Updates       int     `json:"updates,omitempty"`
	CacheStats    string  `json:"cache_stats,omitempty"`
}

func (p passReport) print() {
	if p.Updates > 0 {
		fmt.Printf("%-18s %8d req (%d updates)  %9.0f req/s  p50 %-10s p95 %-10s p99 %-10s errs %d (504:%d)  shed %.1f%%\n",
			p.Name, p.Requests, p.Updates, p.ThroughputRPS,
			time.Duration(p.P50Ns).Round(time.Microsecond),
			time.Duration(p.P95Ns).Round(time.Microsecond),
			time.Duration(p.P99Ns).Round(time.Microsecond),
			p.Errors, p.Timeout504, p.ShedRate*100)
		return
	}
	fmt.Printf("%-18s %8d req  %9.0f req/s  p50 %-10s p95 %-10s p99 %-10s errs %d (504:%d)  shed %.1f%%\n",
		p.Name, p.Requests, p.ThroughputRPS,
		time.Duration(p.P50Ns).Round(time.Microsecond),
		time.Duration(p.P95Ns).Round(time.Microsecond),
		time.Duration(p.P99Ns).Round(time.Microsecond),
		p.Errors, p.Timeout504, p.ShedRate*100)
}

// retryAfterOf parses a 429's Retry-After seconds hint (0 when absent
// or malformed).
func retryAfterOf(resp *http.Response) time.Duration {
	s := resp.Header.Get("Retry-After")
	if s == "" {
		return 0
	}
	secs, err := strconv.Atoi(strings.TrimSpace(s))
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

func statsOf(sys *elinda.System) string {
	st := sys.Proxy.HVS().Stats()
	m := sys.Proxy.MetricsSnapshot()
	return fmt.Sprintf("hits=%d misses=%d stores=%d evictions=%d bytes=%d coalesced=%d",
		st.Hits, st.Misses, st.Stores, st.Evictions, st.Bytes, m.Coalesced)
}

// hotQueries returns the heavy property-expansion set: the exploration
// queries the paper's Figure 4 measures.
func hotQueries(n int) []string {
	all := []string{
		core.PropertyExpansionSPARQL(rdf.OWLThingIRI, false),
		core.PropertyExpansionSPARQL(rdf.OWLThingIRI, true),
		core.PropertyExpansionSPARQL(datagen.Ont("Person"), false),
		core.PropertyExpansionSPARQL(datagen.Ont("Politician"), false),
		core.PropertyExpansionSPARQL(datagen.Ont("Philosopher"), true),
		core.PropertyExpansionSPARQL(datagen.Ont("Agent"), false),
	}
	if n < 1 {
		n = 1
	}
	if n > len(all) {
		n = len(all)
	}
	return all[:n]
}

// workload picks the next request for a worker: an update with
// probability writeMix, otherwise a hot heavy query with probability mix,
// otherwise a distinct cheap lookup that can never repeat soon enough to
// be cache-served.
type workload struct {
	hot      []string
	mix      float64
	writeMix float64
	seed     int64
}

func (w workload) pick(r *rand.Rand) (src string, update bool) {
	if r.Float64() < w.writeMix {
		return w.update(r), true
	}
	if r.Float64() < w.mix {
		return w.hot[r.Intn(len(w.hot))], false
	}
	// Distinct query text per draw: the OFFSET makes the normalized key
	// unique across a large range, so the HVS cannot answer it.
	return fmt.Sprintf(`SELECT ?s WHERE { ?s a <%sPerson> . } LIMIT 5 OFFSET %d`,
		datagen.OntNS, r.Intn(1_000_000)), false
}

// update builds one write request over a bounded triple pool, so deletes
// land on triples earlier inserts created (a delete of an absent triple
// is a valid no-op update and still exercises the whole write path).
func (w workload) update(r *rand.Rand) string {
	n := r.Intn(4096)
	t := fmt.Sprintf("<http://elinda.dev/load/s%d> <http://elinda.dev/load/p%d> <http://elinda.dev/load/o%d>",
		n, n%13, n%251)
	if r.Intn(2) == 0 {
		return "INSERT DATA { " + t + " }"
	}
	return "DELETE DATA { " + t + " }"
}

// selfServe mounts the full serving stack on a loopback listener.
func selfServe(persons int, heavy time.Duration, maxInflight int64, acquireTimeout time.Duration) (*elinda.System, *endpoint.Server, *http.Server, string) {
	cfg := elinda.DefaultDataConfig()
	cfg.Persons = persons
	ds := elinda.GenerateDBpediaLike(cfg)
	sys, err := elinda.OpenWithOptions(ds.Triples, proxy.Options{HeavyThreshold: heavy})
	if err != nil {
		log.Fatal(err)
	}
	srv := sys.Endpoint()
	srv.AcquireTimeout = acquireTimeout
	if maxInflight > 0 {
		srv.Limiter = endpoint.NewLimiter(maxInflight)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.Handle("/sparql", srv)
	httpSrv := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	go httpSrv.Serve(ln)
	return sys, srv, httpSrv, "http://" + ln.Addr().String() + "/sparql"
}

// runPass drives the closed loop: each worker issues its next request as
// soon as the previous response is fully read.
func runPass(name, target, accept string, gen workload, concurrency int, d time.Duration) passReport {
	type workerStats struct {
		latencies []time.Duration
		errors    int
		rejected  int
		timeouts  int
		updates   int
		bytes     int64
	}
	stats := make([]workerStats, concurrency)
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: concurrency * 2}}
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(gen.seed + int64(w)*7919))
			s := &stats[w]
			for time.Now().Before(deadline) {
				q, isUpdate := gen.pick(r)
				reqStart := time.Now()
				var req *http.Request
				var err error
				if isUpdate {
					req, err = http.NewRequest(http.MethodPost, target, strings.NewReader(q))
					if err == nil {
						req.Header.Set("Content-Type", endpoint.UpdateContentType)
					}
				} else {
					req, err = http.NewRequest(http.MethodGet, target+"?query="+url.QueryEscape(q), nil)
					if err == nil {
						req.Header.Set("Accept", accept)
					}
				}
				if err != nil {
					s.errors++
					continue
				}
				resp, err := client.Do(req)
				if err != nil {
					s.errors++
					continue
				}
				n, _ := io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				s.bytes += n
				switch {
				case resp.StatusCode == http.StatusTooManyRequests:
					s.rejected++
					// Honor the server's backoff hint: a closed-loop worker
					// that re-fires instantly after a shed turns overload
					// into livelock and makes the 429 path itself hot.
					if wait := retryAfterOf(resp); wait > 0 {
						if until := time.Until(deadline); wait > until {
							wait = until
						}
						time.Sleep(wait)
					}
				case resp.StatusCode == http.StatusGatewayTimeout:
					s.timeouts++
				case resp.StatusCode != http.StatusOK:
					s.errors++
				default:
					if isUpdate {
						s.updates++
					}
					s.latencies = append(s.latencies, time.Since(reqStart))
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var all []time.Duration
	rep := passReport{Name: name}
	for i := range stats {
		all = append(all, stats[i].latencies...)
		rep.Errors += stats[i].errors
		rep.Rejected429 += stats[i].rejected
		rep.Timeout504 += stats[i].timeouts
		rep.Updates += stats[i].updates
		rep.BytesRead += stats[i].bytes
	}
	rep.Requests = len(all)
	rep.Attempts = rep.Requests + rep.Errors + rep.Rejected429 + rep.Timeout504
	if rep.Attempts > 0 {
		rep.ShedRate = float64(rep.Rejected429) / float64(rep.Attempts)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	if len(all) > 0 {
		rep.ThroughputRPS = float64(len(all)) / elapsed.Seconds()
		var sum time.Duration
		for _, l := range all {
			sum += l
		}
		rep.MeanNs = int64(sum) / int64(len(all))
		q := func(p float64) int64 {
			i := int(p * float64(len(all)-1))
			return all[i].Nanoseconds()
		}
		rep.P50Ns, rep.P95Ns, rep.P99Ns = q(0.50), q(0.95), q(0.99)
	}
	return rep
}
