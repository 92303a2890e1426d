// Command elinda-server runs the eLinda backend: the reverse proxy of
// Figure 3 (HVS + decomposer + generic engine) behind an HTTP server,
// exposing
//
//	/sparql   — SPARQL endpoint (SPARQL 1.1 JSON results, streamed)
//	/api/...  — the explorer JSON API the single-page frontend consumes
//	/healthz  — liveness probe (triple count and store generation)
//	/readyz   — readiness probe (503 while loading, replaying, draining)
//	/metrics  — serving-tier metrics (routes, cache, admission, latency)
//
// The knowledge base is loaded from a file (-load data.nt) or a binary
// snapshot (-snapshot-load); with neither the server starts on an empty
// store that writes fill. Use -remote URL to proxy a remote
// Virtuoso-style endpoint instead of the local engine (the paper's
// remote-compatibility mode; the decomposer tier is disabled there since
// local indexes cannot mirror remote data).
//
// With -wal-dir every accepted insertion is appended to a write-ahead
// log before it is acknowledged; after a crash the boot sequence is
// snapshot-load → WAL-replay → serve, so no acknowledged triple is ever
// lost. SIGINT/SIGTERM triggers a graceful drain (deadline -drain),
// after which the store snapshot is saved and the WAL is checkpointed.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"elinda"
	"elinda/internal/endpoint"
	"elinda/internal/proxy"
	"elinda/internal/rdf"
	"elinda/internal/store"
	"elinda/internal/wal"
)

// config is the parsed flag surface. defineFlags is the only place a
// server flag is declared; TestFlagSurface pins the list and holds
// README's flag tables to it.
type config struct {
	addr      string
	load      string
	heavy     time.Duration
	remote    string
	timeout   time.Duration
	snapLoad  string
	snapSave  string
	walDir    string
	walSync   string
	walEvery  time.Duration
	drain     time.Duration
	cacheMax  int64
	inflight  int64
	admitWait time.Duration
}

func defineFlags(fs *flag.FlagSet) *config {
	c := new(config)
	fs.StringVar(&c.addr, "addr", ":8080", "listen address")
	fs.StringVar(&c.load, "load", "", "load the dataset from an .nt or .ttl file (with no data flag the store starts empty)")
	fs.DurationVar(&c.heavy, "heavy", time.Second, "HVS heaviness threshold")
	fs.StringVar(&c.remote, "remote", "", "route queries to a remote SPARQL endpoint URL")
	fs.DurationVar(&c.timeout, "timeout", 2*time.Minute, "per-query execution timeout")

	fs.StringVar(&c.snapLoad, "snapshot-load", "", "restore the triple store from this binary snapshot (skips parsing entirely; falls back to a cold load when missing)")
	fs.StringVar(&c.snapSave, "snapshot-save", "", "save the triple store to this binary snapshot after loading and on SIGTERM")

	fs.StringVar(&c.walDir, "wal-dir", "", "write-ahead-log directory: inserts are durable before they are acknowledged and replayed at boot")
	fs.StringVar(&c.walSync, "wal-sync", "always", "WAL fsync policy: always | interval | off")
	fs.DurationVar(&c.walEvery, "wal-sync-interval", wal.DefaultSyncInterval, "background fsync cadence for -wal-sync=interval")
	fs.DurationVar(&c.drain, "drain", 10*time.Second, "graceful shutdown deadline for in-flight requests")

	fs.Int64Var(&c.cacheMax, "cache-bytes", 256<<20, "HVS byte budget with LRU eviction, cached bodies included (0 = unlimited)")
	fs.Int64Var(&c.inflight, "max-inflight", 0, "admission-control weight capacity for /sparql (0 = unlimited)")
	fs.DurationVar(&c.admitWait, "acquire-timeout", 100*time.Millisecond, "max admission wait before shedding with 429")
	return c
}

func main() {
	c := defineFlags(flag.CommandLine)
	flag.Parse()
	log.SetFlags(log.LstdFlags)

	var ready endpoint.Readiness
	ready.Set("loading")

	// Interrupted atomic saves leave *.tmp files next to their targets;
	// clear them before anything reads or rewrites those directories.
	sweepStaleTemp(c.snapLoad, c.snapSave)

	st, fromSnapshot, err := buildStore(c.snapLoad, c.load)
	if err != nil {
		log.Fatal(err)
	}

	// Boot order with durability on: snapshot-load (above) → WAL-replay →
	// attach → serve. Replay happens before AttachWAL so recovered triples
	// are not appended to the log a second time.
	var w *wal.WAL
	replayed := 0
	if c.walDir != "" {
		policy, err := wal.ParseSyncPolicy(c.walSync)
		if err != nil {
			log.Fatal(err)
		}
		ready.Set("wal-replay")
		w, err = wal.Open(c.walDir, wal.Options{Policy: policy, Interval: c.walEvery})
		if err != nil {
			log.Fatalf("wal open: %v", err)
		}
		start := time.Now()
		replayed, err = w.ReplayOps(func(op rdf.TripleOp) error {
			_, err := st.Apply(store.DeltaOf(op))
			return err
		})
		if err != nil {
			log.Fatalf("wal replay: %v", err)
		}
		if replayed > 0 {
			log.Printf("replayed %d WAL records in %s", replayed, time.Since(start).Round(time.Millisecond))
		}
		st.AttachWAL(w)
	}

	opts := proxy.Options{HeavyThreshold: c.heavy, CacheMaxBytes: c.cacheMax}
	var sys *elinda.System
	if c.remote == "" {
		sys = elinda.NewSystemFromStore(st, opts)
	} else {
		// Local indexes cannot mirror remote data: no decomposer tier.
		opts.DisableDecomposer = true
		sys = &elinda.System{Store: st}
		sys.Proxy = proxy.NewWithBackend(st, endpoint.NewClient(c.remote), opts)
	}

	// A startup save also checkpoints the WAL (replayed records are
	// folded into the snapshot and the old segments truncated), so do it
	// whenever the store holds anything the snapshot does not.
	if c.snapSave != "" && (!fromSnapshot || replayed > 0) {
		start := time.Now()
		if err := sys.Store.SaveSnapshot(c.snapSave); err != nil {
			log.Printf("store snapshot save failed: %v", err)
		} else {
			log.Printf("store snapshot saved to %s in %s (next boot warm-starts with -snapshot-load)",
				c.snapSave, time.Since(start).Round(time.Millisecond))
		}
	}

	if c.remote == "" {
		ready.Set("warming")
		start := time.Now()
		sys.Warm()
		log.Printf("warmed level-zero aggregates in %s", time.Since(start))
	}

	sparqlSrv := sys.Endpoint()
	sparqlSrv.Timeout = c.timeout
	sparqlSrv.AcquireTimeout = c.admitWait
	if c.inflight > 0 {
		sparqlSrv.Limiter = endpoint.NewLimiter(c.inflight)
	}

	log.Printf("eLinda server on %s (triples=%d remote=%q wal=%q)", c.addr, sys.Store.Len(), c.remote, c.walDir)
	ready.Ready()
	// Graceful shutdown: flip the readiness probe so load balancers stop
	// routing here, drain in-flight requests up to the deadline, then
	// persist. The store save checkpoints the WAL; Close seals it.
	if err := serveWithDrain(c.addr, writerHandler(sys, sparqlSrv, &ready, w), c.drain, &ready); err != nil {
		log.Fatal(err)
	}
	if c.snapSave != "" {
		if err := sys.Store.SaveSnapshot(c.snapSave); err != nil {
			log.Printf("store snapshot %s save failed: %v", c.snapSave, err)
		} else {
			log.Printf("store snapshot %s saved", c.snapSave)
		}
	}
	if w != nil {
		if err := w.Close(); err != nil {
			log.Printf("wal close: %v", err)
		}
	}
	log.Printf("bye")
}

// writerHandler assembles the server's HTTP surface; w is nil without
// -wal-dir.
func writerHandler(sys *elinda.System, sparqlSrv *endpoint.Server, ready *endpoint.Readiness, w *wal.WAL) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/sparql", sparqlSrv)
	newAPI(sys).register(mux)
	registerUI(mux)
	mux.Handle("/readyz", ready)
	mux.HandleFunc("/healthz", healthz(sys.Store))
	return endpoint.Ops(mux, log.Printf, func(doc map[string]any) {
		doc["server"] = sparqlSrv.MetricsSnapshot()
		doc["proxy"] = sys.Proxy.MetricsSnapshot()
		doc["store"] = map[string]any{
			"triples":    sys.Store.Len(),
			"generation": sys.Store.Generation(),
		}
		if w != nil {
			doc["wal"] = w.Stats()
		}
	})
}

// serveWithDrain runs an HTTP server until SIGINT/SIGTERM, then drains:
// the readiness probe flips to "draining" before Shutdown so load
// balancers route around the instance first. It returns nil once the
// drain is over. handler already recovers its own panics (endpoint.Ops).
func serveWithDrain(addr string, handler http.Handler, drain time.Duration, ready *endpoint.Readiness) error {
	srv := &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		stop() // a second signal kills immediately instead of queueing
	}
	ready.Set("draining")
	log.Printf("shutdown signal received; draining for up to %s", drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		log.Printf("drain incomplete: %v", err)
	}
	return nil
}

// healthz is the liveness probe. It answers from the published
// snapshot's counters in O(1), so probing a large store costs nothing.
func healthz(st *store.Store) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "ok triples=%d generation=%d\n", st.Len(), st.Generation())
	}
}
