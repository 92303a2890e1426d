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
// The knowledge base is either loaded from a file (-load data.nt) or
// generated synthetically (-persons N). Use -remote URL to proxy a remote
// Virtuoso-style endpoint instead of the local engine (the paper's
// remote-compatibility mode; the decomposer tier is disabled there since
// local indexes cannot mirror remote data).
//
// With -wal-dir every accepted insertion is appended to a write-ahead
// log before it is acknowledged; after a crash the boot sequence is
// snapshot-load → WAL-replay → serve, so no acknowledged triple is ever
// lost. SIGINT/SIGTERM triggers a graceful drain (deadline -drain),
// after which snapshots are saved and the WAL is checkpointed.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"elinda"
	"elinda/internal/datagen"
	"elinda/internal/endpoint"
	"elinda/internal/fleet"
	"elinda/internal/metrics"
	"elinda/internal/proxy"
	"elinda/internal/rdf"
	"elinda/internal/store"
	"elinda/internal/vfs"
	"elinda/internal/wal"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		load      = flag.String("load", "", "load dataset from an .nt or .ttl file instead of generating")
		persons   = flag.Int("persons", 2000, "synthetic dataset size (Person subtree)")
		threshold = flag.Duration("heavy", time.Second, "HVS heaviness threshold")
		noHVS     = flag.Bool("no-hvs", false, "disable the heavy query store")
		noDecomp  = flag.Bool("no-decomposer", false, "disable the decomposer")
		remote    = flag.String("remote", "", "route queries to a remote SPARQL endpoint URL")
		warm      = flag.Bool("warm", true, "precompute level-zero aggregates at startup")
		timeout   = flag.Duration("timeout", 2*time.Minute, "per-query execution timeout")
		hvsSnap   = flag.String("hvs-snapshot", "", "persist the heavy query store to this file (restored at boot, saved on shutdown)")

		snapLoad      = flag.String("snapshot-load", "", "restore the triple store from this binary snapshot (skips parsing entirely; falls back to a cold load when missing)")
		snapSave      = flag.String("snapshot-save", "", "save the triple store to this binary snapshot after loading and on SIGTERM")
		ingestWorkers = flag.Int("ingest-workers", 0, "parallel parse/intern workers for -load streaming ingest (0 = GOMAXPROCS)")

		walDir      = flag.String("wal-dir", "", "write-ahead-log directory: inserts are durable before they are acknowledged and replayed at boot")
		walSync     = flag.String("wal-sync", "always", "WAL fsync policy: always | interval | off")
		walInterval = flag.Duration("wal-sync-interval", wal.DefaultSyncInterval, "background fsync cadence for -wal-sync=interval")
		drain       = flag.Duration("drain", 10*time.Second, "graceful shutdown deadline for in-flight requests")

		incChunk     = flag.Int("inc-chunk", 0, "incremental evaluation chunk size N (0 = library default)")
		incRounds    = flag.Int("inc-rounds", 0, "incremental evaluation round limit k (0 = run to completion)")
		incWorkers   = flag.Int("inc-workers", 1, "parallel shards per incremental round (<=1 = sequential)")
		queryWorkers = flag.Int("query-workers", 0, "parallel BGP worker pool per query (0 = GOMAXPROCS, 1 = serial)")

		role = flag.String("role", "single", "process role: single | coordinator | replica | router")
		ff   fleetFlags

		noCoalesce     = flag.Bool("no-coalesce", false, "disable singleflight coalescing of identical in-flight queries")
		cacheBytes     = flag.Int64("cache-bytes", 0, "HVS byte budget with LRU eviction (0 = unlimited)")
		maxInflight    = flag.Int64("max-inflight", 0, "admission-control weight capacity for /sparql (0 = unlimited)")
		acquireTimeout = flag.Duration("acquire-timeout", 100*time.Millisecond, "max admission wait before shedding with 429")
		flushRows      = flag.Int("flush-rows", 0, "streaming flush cadence in rows (0 = default 256)")
	)
	flag.StringVar(&ff.coordinator, "fleet-coordinator", "", "replica: base URL of the coordinator to pull snapshots from")
	flag.StringVar(&ff.dir, "fleet-dir", "fleet-cache", "replica: directory for fetched snapshot files")
	flag.DurationVar(&ff.poll, "fleet-poll", 2*time.Second, "replica: coordinator manifest poll interval")
	flag.StringVar(&ff.replicas, "fleet-replicas", "", "router: comma-separated replica list, each [name=]url")
	flag.DurationVar(&ff.probe, "probe-interval", time.Second, "router: replica /readyz probe interval")
	flag.IntVar(&ff.retryBudget, "retry-budget", 3, "router: max attempts per request, hedges included")
	flag.DurationVar(&ff.hedgeDelay, "hedge-delay", 0, "router: tail-latency hedge delay (0 = derive from observed p95)")
	flag.BoolVar(&ff.noHedge, "no-hedge", false, "router: disable tail-latency hedging")
	flag.IntVar(&ff.breakerFail, "breaker-failures", 5, "router: consecutive failures that trip a replica's circuit breaker")
	flag.DurationVar(&ff.breakerOpen, "breaker-open", 2*time.Second, "router: how long a tripped breaker rejects before a half-open trial")
	flag.BoolVar(&ff.fallback, "fleet-fallback", false, "router: serve from an embedded local store when every replica is down (uses the data flags)")
	flag.Parse()
	log.SetFlags(log.LstdFlags)
	ff.role = *role

	// The replica and router roles have their own boot paths: a replica
	// holds no local dataset (it pulls from the coordinator) and a router
	// holds one only as the -fleet-fallback degradation rung.
	switch ff.role {
	case "replica":
		if err := runReplica(*addr, ff, proxy.Options{
			HeavyThreshold:    *threshold,
			DisableHVS:        *noHVS,
			DisableDecomposer: *noDecomp,
			DisableCoalescing: *noCoalesce,
			CacheMaxBytes:     *cacheBytes,
			QueryWorkers:      *queryWorkers,
		}, *warm, *walDir, *timeout, *drain); err != nil {
			log.Fatal(err)
		}
		return
	case "router":
		var fallback http.Handler
		if ff.fallback {
			st, _, err := buildStore(*snapLoad, *load, *persons, *ingestWorkers)
			if err != nil {
				log.Fatalf("building fallback store: %v", err)
			}
			fsys := elinda.NewSystemFromStore(st, proxy.Options{HeavyThreshold: *threshold})
			fsrv := fsys.Endpoint()
			fsrv.Timeout = *timeout
			fallback = fsrv
		}
		if err := runRouter(*addr, ff, fallback, *drain); err != nil {
			log.Fatal(err)
		}
		return
	case "single", "coordinator":
		// fall through to the standard writer boot below.
	default:
		log.Fatalf("unknown -role %q (want single, coordinator, replica or router)", ff.role)
	}

	var ready endpoint.Readiness
	ready.Set("loading")

	// Interrupted atomic saves leave *.tmp files next to their targets;
	// clear them before anything reads or rewrites those directories.
	sweepStaleTemp(*snapLoad, *snapSave, *hvsSnap)

	st, fromSnapshot, err := buildStore(*snapLoad, *load, *persons, *ingestWorkers)
	if err != nil {
		log.Fatal(err)
	}

	// Boot order with durability on: snapshot-load (above) → WAL-replay →
	// attach → serve. Replay happens before AttachWAL so recovered triples
	// are not appended to the log a second time.
	var w *wal.WAL
	replayed := 0
	if *walDir != "" {
		policy, err := wal.ParseSyncPolicy(*walSync)
		if err != nil {
			log.Fatal(err)
		}
		ready.Set("wal-replay")
		w, err = wal.Open(*walDir, wal.Options{Policy: policy, Interval: *walInterval})
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

	opts := proxy.Options{
		HeavyThreshold:    *threshold,
		DisableHVS:        *noHVS,
		DisableDecomposer: *noDecomp || *remote != "",
		DisableCoalescing: *noCoalesce,
		CacheMaxBytes:     *cacheBytes,
		QueryWorkers:      *queryWorkers,
	}
	var sys *elinda.System
	if *remote == "" {
		sys = elinda.NewSystemFromStore(st, opts)
	} else {
		sys = &elinda.System{Store: st}
		sys.Proxy = proxy.NewWithBackend(st, endpoint.NewClient(*remote), opts)
	}

	// A startup save also checkpoints the WAL (replayed records are
	// folded into the snapshot and the old segments truncated), so do it
	// whenever the store holds anything the snapshot does not.
	if *snapSave != "" && (!fromSnapshot || replayed > 0) {
		start := time.Now()
		if err := sys.Store.SaveSnapshot(*snapSave); err != nil {
			log.Printf("store snapshot save failed: %v", err)
		} else {
			log.Printf("store snapshot saved to %s in %s (next boot warm-starts with -snapshot-load)",
				*snapSave, time.Since(start).Round(time.Millisecond))
		}
	}

	sys.SetIncrementalDefaults(elinda.IncrementalOptions{
		ChunkSize: *incChunk,
		MaxRounds: *incRounds,
		Workers:   *incWorkers,
	})

	if *warm && *remote == "" {
		ready.Set("warming")
		start := time.Now()
		sys.Warm()
		log.Printf("warmed level-zero aggregates in %s", time.Since(start))
	}

	var savers []saver
	if *hvsSnap != "" {
		if err := restoreHVS(sys, *hvsSnap); err != nil {
			log.Printf("hvs snapshot restore skipped: %v", err)
		} else {
			log.Printf("hvs restored from %s (%d entries)", *hvsSnap, sys.Proxy.HVS().Len())
		}
		hvsPath := *hvsSnap
		savers = append(savers, saver{name: "hvs snapshot " + hvsPath, save: func() error { return saveHVS(sys, hvsPath) }})
	}
	if *snapSave != "" {
		snapPath := *snapSave
		savers = append(savers, saver{name: "store snapshot " + snapPath, save: func() error { return sys.Store.SaveSnapshot(snapPath) }})
	}

	sparqlSrv := sys.Endpoint()
	sparqlSrv.Timeout = *timeout
	sparqlSrv.AcquireTimeout = *acquireTimeout
	sparqlSrv.FlushRows = *flushRows
	if *maxInflight > 0 {
		sparqlSrv.Limiter = endpoint.NewLimiter(*maxInflight)
	}

	var panics metrics.Counter
	mux := http.NewServeMux()
	mux.Handle("/sparql", sparqlSrv)
	api := newAPI(sys)
	api.register(mux)
	registerUI(mux)
	var coord *fleet.Coordinator
	if ff.role == "coordinator" {
		coord = fleet.NewCoordinator(sys.Store)
		mountCoordinator(mux, coord)
		log.Printf("fleet coordinator mounted at /fleet/ (generation %d)", sys.Store.Generation())
	}
	mux.Handle("/readyz", &ready)
	mux.HandleFunc("/healthz", healthz(sys.Store))
	mux.HandleFunc("/metrics", func(rw http.ResponseWriter, r *http.Request) {
		doc := map[string]any{
			"server":       sparqlSrv.MetricsSnapshot(),
			"proxy":        sys.Proxy.MetricsSnapshot(),
			"panics_total": panics.Value(),
			"store": map[string]any{
				"triples":    sys.Store.Len(),
				"generation": sys.Store.Generation(),
			},
		}
		if w != nil {
			doc["wal"] = w.Stats()
		}
		if coord != nil {
			doc["coordinator"] = coord.MetricsSnapshot()
		}
		rw.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(rw)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			log.Printf("metrics encode: %v", err)
		}
	})

	log.Printf("eLinda server on %s (triples=%d hvs=%v decomposer=%v remote=%q wal=%q)",
		*addr, sys.Store.Len(), !opts.DisableHVS, !opts.DisableDecomposer, *remote, *walDir)
	srv := &http.Server{
		Addr:              *addr,
		Handler:           endpoint.RecoverPanics(mux, &panics, log.Printf),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	ready.Ready()

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
		stop() // a second signal kills immediately instead of queueing
	}

	// Graceful shutdown: flip the readiness probe so load balancers stop
	// routing here, drain in-flight requests up to the deadline, then
	// persist. The store save checkpoints the WAL; Close seals it.
	ready.Set("draining")
	log.Printf("shutdown signal received; draining for up to %s", *drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		log.Printf("drain incomplete: %v", err)
	}
	runSavers(savers)
	if w != nil {
		if err := w.Close(); err != nil {
			log.Printf("wal close: %v", err)
		}
	}
	log.Printf("bye")
}

// healthz is the liveness probe. It answers from the published
// snapshot's counters in O(1), the same line a fleet replica prints, so
// probing a large store costs nothing.
func healthz(st *store.Store) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "ok triples=%d generation=%d\n", st.Len(), st.Generation())
	}
}

// sweepStaleTemp removes *.tmp leftovers of interrupted atomic saves
// from the directory of each given persistence path. Empty paths are
// skipped; the WAL directory is swept by wal.Open itself.
func sweepStaleTemp(paths ...string) {
	seen := make(map[string]bool)
	for _, p := range paths {
		if p == "" {
			continue
		}
		dir := filepath.Dir(p)
		if seen[dir] {
			continue
		}
		seen[dir] = true
		removed, err := vfs.SweepTemp(vfs.OS, dir)
		if err != nil {
			log.Printf("stale temp sweep of %s: %v", dir, err)
			continue
		}
		for _, f := range removed {
			log.Printf("removed stale temp file %s", f)
		}
	}
}

// buildStore assembles the triple store by the fastest route available:
// a binary snapshot (instant warm start, no parsing), a streamed parallel
// ingest of a dataset file, or the synthetic generator. The second result
// reports whether the store came from the snapshot, so the caller can
// skip the redundant startup save.
func buildStore(snapPath, load string, persons, ingestWorkers int) (*store.Store, bool, error) {
	if snapPath != "" {
		start := time.Now()
		st, err := store.OpenSnapshot(snapPath)
		if err == nil {
			log.Printf("restored store snapshot %s in %s (%d triples, generation %d)",
				snapPath, time.Since(start).Round(time.Millisecond), st.Len(), st.Generation())
			return st, true, nil
		}
		if !errors.Is(err, fs.ErrNotExist) {
			// A corrupt or incompatible snapshot is an operator problem;
			// silently re-parsing would hide it.
			return nil, false, err
		}
		log.Printf("no store snapshot at %s yet; cold loading", snapPath)
	}
	if load != "" {
		f, err := os.Open(load)
		if err != nil {
			return nil, false, fmt.Errorf("opening dataset: %w", err)
		}
		defer f.Close()
		st := store.New(0)
		start := time.Now()
		n, err := st.LoadStream(f, store.StreamOptions{
			Syntax:  rdf.DetectFormat(load),
			Workers: ingestWorkers,
		})
		if err != nil {
			return nil, false, err
		}
		log.Printf("streamed %d triples from %s in %s", n, load, time.Since(start).Round(time.Millisecond))
		return st, false, nil
	}
	cfg := elinda.DefaultDataConfig()
	cfg.Persons = persons
	ts := datagen.Generate(cfg).Triples
	st := store.New(len(ts))
	if _, err := st.Load(ts); err != nil {
		return nil, false, err
	}
	return st, false, nil
}
