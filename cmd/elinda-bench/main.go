// Command elinda-bench regenerates the paper's evaluation outputs. Each
// experiment prints the paper's reported numbers next to the measured
// ones, so the reproduction can be judged at a glance. Absolute runtimes
// differ from the paper (their substrate was a Virtuoso deployment; ours
// is an in-process Go engine), but the ordering and the
// orders-of-magnitude gaps are the claim under test.
//
// Usage:
//
//	elinda-bench -experiment fig4 [-persons N]
//	elinda-bench -experiment facts | incremental | ablation-hvs | ablation-decomposer | all
//
// It is also the CI bench-trend gate: -compare checks a fresh BENCH_*.json
// against a committed baseline and fails when any timing regressed past
// the tolerance:
//
//	elinda-bench -compare bench/baselines/BENCH_query.json BENCH_query.json -tolerance 3x
//
// -compare exits 1 on a regression and 3 when an input file is missing,
// so "the baseline was never generated" cannot masquerade as "the code
// got slower" (note `go run` collapses any nonzero child exit to 1; use
// the built binary where the distinction matters).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"log"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"elinda"
	"elinda/internal/core"
	"elinda/internal/datagen"
	"elinda/internal/decomposer"
	"elinda/internal/incremental"
	"elinda/internal/ontology"
	"elinda/internal/proxy"
	"elinda/internal/rdf"
	"elinda/internal/sparql"
	"elinda/internal/store"
	"elinda/internal/viz"
	"elinda/internal/wal"
)

func main() {
	var (
		experiment  = flag.String("experiment", "all", "fig4 | facts | incremental | ablation-hvs | ablation-decomposer | query-engine | join | store-snapshot | ingest | wal | fleet | update | all")
		persons     = flag.Int("persons", 20000, "synthetic dataset size for timing experiments")
		factsSize   = flag.Int("facts-persons", 2000, "dataset size for the text-fact experiments")
		jsonOut     = flag.String("json-out", "BENCH_query.json", "machine-readable output path for the query-engine experiment")
		storeOut    = flag.String("store-json-out", "BENCH_store.json", "machine-readable output path for the store-snapshot experiment")
		ingestOut   = flag.String("ingest-json-out", "BENCH_ingest.json", "machine-readable output path for the ingest experiment")
		walOut      = flag.String("wal-json-out", "BENCH_wal.json", "machine-readable output path for the wal experiment")
		fleetOut    = flag.String("fleet-json-out", "BENCH_fleet.json", "machine-readable output path for the fleet experiment")
		updateOut   = flag.String("update-json-out", "BENCH_update.json", "machine-readable output path for the update experiment")
		joinOut     = flag.String("join-json-out", "BENCH_join.json", "machine-readable output path for the join experiment")
		joinNodes   = flag.Int("join-nodes", 4000, "graph size (nodes) for the join experiment")
		joinExplain = flag.Bool("join-explain", false, "print the EXPLAIN plan for each join workload")
		walRecords  = flag.Int("wal-records", 20000, "record count for the wal append/replay measurements (the fsync-per-append policy uses a tenth)")
		triples     = flag.Int("triples", 1_000_000, "synthetic triple count for the store-snapshot and ingest bulk-load measurements")
		compare     = flag.Bool("compare", false, "compare two BENCH_*.json files: -compare old.json new.json [-tolerance 3x]; exits 1 on regression")
		tolerance   = flag.String("tolerance", "3x", "max allowed slowdown ratio for -compare")
	)
	flag.Parse()
	log.SetFlags(0)

	if *compare {
		runCompare(flag.Args(), *tolerance)
		return
	}

	switch *experiment {
	case "fig4":
		runFig4(*persons)
	case "facts":
		runFacts(*factsSize)
	case "incremental":
		runIncremental(*persons)
	case "ablation-hvs":
		runAblationHVS(*persons)
	case "ablation-decomposer":
		runAblationDecomposer(*persons)
	case "query-engine":
		runQueryEngine(*persons, *jsonOut)
	case "join":
		runJoin(*joinNodes, *joinOut, *joinExplain)
	case "store-snapshot":
		runStoreSnapshot(*triples, *storeOut)
	case "ingest":
		runIngest(*triples, *ingestOut)
	case "wal":
		runWAL(*walRecords, *walOut)
	case "fleet":
		runFleet(*factsSize, *fleetOut)
	case "update":
		runUpdate(*persons, *updateOut)
	case "all":
		runFacts(*factsSize)
		fmt.Println()
		runFig4(*persons)
		fmt.Println()
		runIncremental(*persons)
		fmt.Println()
		runAblationHVS(*persons)
		fmt.Println()
		runAblationDecomposer(*persons)
		fmt.Println()
		runQueryEngine(*persons, *jsonOut)
		fmt.Println()
		runJoin(*joinNodes, *joinOut, *joinExplain)
		fmt.Println()
		runStoreSnapshot(*triples, *storeOut)
		fmt.Println()
		runIngest(*triples, *ingestOut)
		fmt.Println()
		runWAL(*walRecords, *walOut)
		fmt.Println()
		runFleet(*factsSize, *fleetOut)
		fmt.Println()
		runUpdate(*persons, *updateOut)
	default:
		log.Fatalf("unknown experiment %q", *experiment)
	}
}

func buildSystem(persons int) *elinda.System {
	cfg := elinda.DefaultDataConfig()
	cfg.Persons = persons
	ds := elinda.GenerateDBpediaLike(cfg)
	sys, err := elinda.Open(ds.Triples)
	if err != nil {
		log.Fatal(err)
	}
	return sys
}

// runFig4 reproduces Figure 4: level-zero property expansions under the
// three store configurations.
func runFig4(persons int) {
	fmt.Println("== Figure 4: level-zero property expansion runtimes ==")
	sys := buildSystem(persons)
	fmt.Printf("dataset: %d triples (persons=%d)\n", sys.Store.Len(), persons)
	fmt.Println("paper reference: Virtuoso 454s/124s — decomposer 1.5s/1.2s — HVS ~80ms")
	fmt.Println()

	queries := map[string]string{
		"outgoing": core.PropertyExpansionSPARQL(rdf.OWLThingIRI, false),
		"incoming": core.PropertyExpansionSPARQL(rdf.OWLThingIRI, true),
	}
	type row struct {
		name string
		opts proxy.Options
		warm bool
	}
	rows := []row{
		{"Virtuoso (generic engine)", proxy.Options{DisableHVS: true, DisableDecomposer: true}, false},
		{"eLinda (decomposer)", proxy.Options{DisableHVS: true}, false},
		{"HVS (cache hit)", proxy.Options{HeavyThreshold: time.Nanosecond}, true},
	}
	fmt.Printf("%-28s %14s %14s\n", "configuration", "outgoing", "incoming")
	var series []viz.RuntimeSeries
	for _, r := range rows {
		sys.Proxy.SetOptions(r.opts)
		sys.Proxy.HVS().Invalidate()
		results := map[string]time.Duration{}
		for dir, q := range queries {
			if r.warm {
				if _, err := sys.Proxy.Query(context.Background(), q); err != nil {
					log.Fatal(err)
				}
			}
			start := time.Now()
			if _, err := sys.Proxy.Query(context.Background(), q); err != nil {
				log.Fatal(err)
			}
			results[dir] = time.Since(start)
		}
		fmt.Printf("%-28s %14s %14s\n", r.name,
			results["outgoing"].Round(time.Microsecond),
			results["incoming"].Round(time.Microsecond))
		series = append(series, viz.RuntimeSeries{Name: r.name, ByGroup: results})
	}
	fmt.Println()
	fmt.Print(viz.RuntimeChart("Figure 4 (log-scale bars)", []string{"outgoing", "incoming"}, series, 44))
}

// runFacts reproduces the text facts T1–T3 and T5.
func runFacts(persons int) {
	fmt.Println("== Text facts (T1, T2, T3, T5) ==")
	cfg := elinda.DefaultDataConfig()
	cfg.Persons = persons
	ds := elinda.GenerateDBpediaLike(cfg)
	sys, err := elinda.Open(ds.Triples)
	if err != nil {
		log.Fatal(err)
	}
	h := ontology.Build(sys.Store)
	root := h.Root()

	tops := h.DirectSubclasses(root)
	empty := h.EmptyClasses(true)
	fmt.Printf("T1  top-level classes:        paper 49   measured %d\n", len(tops))
	fmt.Printf("T1  empty top-level classes:  paper 22   measured %d\n", len(empty))

	agent, _ := sys.Store.Dict().Lookup(datagen.Ont("Agent"))
	direct, total := h.SubclassCounts(agent)
	fmt.Printf("T1b Agent direct subclasses:  paper 5    measured %d\n", direct)
	fmt.Printf("T1b Agent total subclasses:   paper 277  measured %d\n", total)

	dec := decomposer.New(sys.Store)
	pol, _ := sys.Store.Dict().Lookup(datagen.Ont("Politician"))
	polStats := dec.PropertyStats(pol, decomposer.Outgoing)
	nPol := len(sys.Store.SubjectsOfType(pol))
	above := 0
	for _, s := range polStats {
		if float64(s.Subjects) >= 0.2*float64(nPol) {
			above++
		}
	}
	fmt.Printf("T2  Politician distinct props (scaled): paper 1482  measured %d\n", len(polStats))
	fmt.Printf("T2  Politician props >= 20%%:  paper 38   measured %d\n", above)

	phil, _ := sys.Store.Dict().Lookup(datagen.Ont("Philosopher"))
	philStats := dec.PropertyStats(phil, decomposer.Incoming)
	nPhil := len(sys.Store.SubjectsOfType(phil))
	aboveIn := 0
	for _, s := range philStats {
		if float64(s.Subjects) >= 0.2*float64(nPhil) {
			aboveIn++
		}
	}
	fmt.Printf("T3  Philosopher ingoing props >= 20%%: paper 9  measured %d\n", aboveIn)

	pane := sys.Explorer.OpenPane(datagen.Ont("Person"))
	conn, err := pane.ConnectionsChart(datagen.Ont("birthPlace"), false)
	if err != nil {
		log.Fatal(err)
	}
	food, ok := conn.BarByText("Food")
	fmt.Printf("T5  people born in Food resources: paper 'detectable'  measured bar=%v count=%d\n",
		ok, barCount(food))
}

func barCount(b *core.ChartBar) int {
	if b == nil {
		return 0
	}
	return b.Count
}

// runIncremental reproduces T4: chunked evaluation sweep over N and k.
func runIncremental(persons int) {
	fmt.Println("== T4: incremental evaluation sweep ==")
	sys := buildSystem(persons)
	totalTriples := sys.Store.Len()
	fmt.Printf("dataset: %d triples\n", totalTriples)

	// Full single-shot baseline.
	full := incremental.NewPropertyAggregator(nil, false)
	start := time.Now()
	sys.Store.Scan(0, 0, func(e rdf.EncodedTriple) bool { full.Observe(e); return true })
	fullTime := time.Since(start)
	fullCounts := full.Counts()
	fmt.Printf("single-shot full scan: %s, %d properties\n\n", fullTime.Round(time.Microsecond), len(fullCounts))

	fmt.Printf("%10s %8s %14s %14s %10s\n", "N", "rounds", "t(first)", "t(total)", "complete")
	for _, chunkDiv := range []int{50, 20, 10, 5, 2, 1} {
		n := totalTriples/chunkDiv + 1
		ev := incremental.New(sys.Store, incremental.Config{ChunkSize: n})
		agg := incremental.NewPropertyAggregator(nil, false)
		var firstRound time.Duration
		begin := time.Now()
		final, err := ev.Run(context.Background(), agg, func(s incremental.Snapshot) bool {
			if s.Round == 1 {
				firstRound = time.Since(begin)
			}
			return true
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%10d %8d %14s %14s %10v\n",
			n, final.Round, firstRound.Round(time.Microsecond),
			time.Since(begin).Round(time.Microsecond), final.Complete)
		if len(final.Counts) != len(fullCounts) {
			log.Fatalf("incremental result diverged: %d vs %d properties", len(final.Counts), len(fullCounts))
		}
	}
	fmt.Println("\ninvariant verified: every sweep converges to the single-shot chart")
}

// queryBenchRow is one workload measurement in BENCH_query.json.
type queryBenchRow struct {
	Name     string `json:"name"`
	Rows     int    `json:"rows"`
	StreamNs int64  `json:"stream_ns"`
}

// queryBenchReport is the machine-readable result of the query-engine
// experiment; it seeds the perf trajectory for the execution pipeline.
type queryBenchReport struct {
	Experiment  string          `json:"experiment"`
	GeneratedAt string          `json:"generated_at"`
	Persons     int             `json:"persons"`
	Triples     int             `json:"triples"`
	Workloads   []queryBenchRow `json:"workloads"`
}

// bestOf3 executes q three times on e and returns the fastest run and
// its row count.
func bestOf3(e *sparql.Engine, q *sparql.Query) (time.Duration, int) {
	best := time.Duration(0)
	rows := 0
	for i := 0; i < 3; i++ {
		start := time.Now()
		res, err := e.Execute(context.Background(), q)
		if err != nil {
			log.Fatal(err)
		}
		if d := time.Since(start); best == 0 || d < best {
			best = d
		}
		rows = len(res.Rows)
	}
	return best, rows
}

// runQueryEngine times the executor on BGP-join, DISTINCT, GROUP BY and
// expansion-shaped workloads, and writes BENCH_query.json.
func runQueryEngine(persons int, jsonOut string) {
	fmt.Println("== Query engine: ID-space streaming executor ==")
	sys := buildSystem(persons)
	fmt.Printf("dataset: %d triples (persons=%d)\n\n", sys.Store.Len(), persons)

	workloads := []struct {
		name string
		src  string
	}{
		{"bgp-join2", `SELECT ?s ?o WHERE {
  ?s a <` + datagen.OntNS + `Person> .
  ?s <` + datagen.OntNS + `birthPlace> ?o . }`},
		{"bgp-join3", `SELECT ?s ?o ?l WHERE {
  ?s a <` + datagen.OntNS + `Person> .
  ?s <` + datagen.OntNS + `birthPlace> ?o .
  ?s <` + rdf.LabelIRI.Value + `> ?l . }`},
		{"distinct-pairs", `SELECT DISTINCT ?p ?o WHERE { ?s ?p ?o . }`},
		{"expansion-person", core.PropertyExpansionSPARQL(datagen.Ont("Person"), false)},
		{"groupby-pred", `SELECT ?p (COUNT(?s) AS ?n) WHERE { ?s ?p ?o . } GROUP BY ?p ORDER BY DESC(?n)`},
	}

	eng := sparql.NewEngine(sys.Store)
	report := queryBenchReport{
		Experiment:  "query-engine",
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Persons:     persons,
		Triples:     sys.Store.Len(),
	}
	fmt.Printf("%-18s %10s %14s\n", "workload", "rows", "t(best of 3)")
	for _, w := range workloads {
		q, err := sparql.Parse(w.src)
		if err != nil {
			log.Fatalf("%s: %v", w.name, err)
		}
		d, rows := bestOf3(eng, q)
		fmt.Printf("%-18s %10d %14s\n", w.name, rows, d.Round(time.Microsecond))
		report.Workloads = append(report.Workloads, queryBenchRow{Name: w.name, Rows: rows, StreamNs: d.Nanoseconds()})
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(jsonOut, append(data, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwrote %s\n", jsonOut)
}

// runAblationHVS reproduces A1: heaviness-threshold sensitivity.
func runAblationHVS(persons int) {
	fmt.Println("== A1: HVS heaviness threshold sweep ==")
	sys := buildSystem(persons)
	workload := []string{
		core.PropertyExpansionSPARQL(rdf.OWLThingIRI, false),
		core.PropertyExpansionSPARQL(rdf.OWLThingIRI, true),
		core.PropertyExpansionSPARQL(datagen.Ont("Person"), false),
		core.PropertyExpansionSPARQL(datagen.Ont("Politician"), false),
		`SELECT ?s WHERE { ?s a ` + datagen.Ont("Philosopher").String() + ` . }`,
	}
	fmt.Printf("%12s %10s %10s %10s %12s\n", "threshold", "entries", "hits", "misses", "total time")
	for _, th := range []time.Duration{
		10 * time.Microsecond, 100 * time.Microsecond, time.Millisecond,
		10 * time.Millisecond, 100 * time.Millisecond, time.Second,
	} {
		sys.Proxy.SetOptions(proxy.Options{HeavyThreshold: th, DisableDecomposer: true})
		sys.Proxy.HVS().Invalidate()
		before := sys.Proxy.HVS().Stats()
		start := time.Now()
		for round := 0; round < 3; round++ {
			for _, q := range workload {
				if _, err := sys.Proxy.Query(context.Background(), q); err != nil {
					log.Fatal(err)
				}
			}
		}
		elapsed := time.Since(start)
		st := sys.Proxy.HVS().Stats()
		fmt.Printf("%12s %10d %10d %10d %12s\n",
			th, st.Entries, st.Hits-before.Hits, st.Misses-before.Misses,
			elapsed.Round(time.Millisecond))
	}
	fmt.Println("\nlower thresholds cache more queries: hits rise, total time falls")
}

// runAblationDecomposer reproduces A2: decomposer on/off per class level.
func runAblationDecomposer(persons int) {
	fmt.Println("== A2: decomposer ablation across class levels ==")
	sys := buildSystem(persons)
	classes := []rdf.Term{
		rdf.OWLThingIRI,
		datagen.Ont("Agent"),
		datagen.Ont("Person"),
		datagen.Ont("Politician"),
		datagen.Ont("Philosopher"),
	}
	fmt.Printf("%-14s %12s %14s %14s %9s\n", "class", "|S|", "generic", "decomposed", "speedup")
	for _, class := range classes {
		q := core.PropertyExpansionSPARQL(class, false)
		cid, _ := sys.Store.Dict().Lookup(class)
		size := len(sys.Store.SubjectsOfType(cid))

		sys.Proxy.SetOptions(proxy.Options{DisableHVS: true, DisableDecomposer: true})
		start := time.Now()
		if _, err := sys.Proxy.Query(context.Background(), q); err != nil {
			log.Fatal(err)
		}
		generic := time.Since(start)

		sys.Proxy.SetOptions(proxy.Options{DisableHVS: true})
		start = time.Now()
		if _, err := sys.Proxy.Query(context.Background(), q); err != nil {
			log.Fatal(err)
		}
		decomposed := time.Since(start)

		speedup := float64(generic) / float64(decomposed)
		fmt.Printf("%-14s %12d %14s %14s %8.1fx\n",
			class.LocalName(), size,
			generic.Round(time.Microsecond), decomposed.Round(time.Microsecond), speedup)
	}
}

// --- store-snapshot experiment ---

// storeBenchReport is the machine-readable result of the store-snapshot
// experiment (BENCH_store.json).
type storeBenchReport struct {
	Experiment  string `json:"experiment"`
	GeneratedAt string `json:"generated_at"`
	Triples     int    `json:"triples"`

	BulkLoad struct {
		// EncodeNs is the dictionary-encoding share of a load, measured
		// on a dictionary of its own; BulkNs - EncodeNs is the sort-once
		// index build.
		EncodeNs int64 `json:"encode_ns"`
		// BulkNs is the full end-to-end load (encode + index build).
		BulkNs        int64   `json:"bulk_ns"`
		TriplesPerSec float64 `json:"triples_per_sec"`
	} `json:"bulk_load"`

	ReadLatency struct {
		SnapshotNsOp           float64 `json:"snapshot_ns_op"`
		Goroutines             int     `json:"goroutines"`
		ConcurrentSnapshotNsOp float64 `json:"concurrent_snapshot_ns_op"`
	} `json:"read_latency"`
}

// storeBenchTriples builds the bulk-load workload: the DBpedia-like
// dataset scaled to roughly n triples, shuffled with a fixed seed. Real
// bulk loads (dataset dumps, merged crawls) do not arrive in dictionary
// order, so the sort-once build is measured on unsorted input.
func storeBenchTriples(n int) []rdf.Triple {
	cfg := elinda.DefaultDataConfig()
	cfg.Persons = n/19 + 1 // ~19 triples per person
	ts := elinda.GenerateDBpediaLike(cfg).Triples
	r := rand.New(rand.NewSource(7))
	r.Shuffle(len(ts), func(i, j int) { ts[i], ts[j] = ts[j], ts[i] })
	return ts
}

// runStoreSnapshot measures the immutable-snapshot store: sort-once bulk
// load and lock-free snapshot reads serial and concurrent. Writes
// BENCH_store.json.
func runStoreSnapshot(triples int, jsonOut string) {
	fmt.Println("== Store snapshot: columnar bulk load, lock-free reads ==")
	var report storeBenchReport
	report.Experiment = "store-snapshot"
	report.GeneratedAt = time.Now().UTC().Format(time.RFC3339)

	// --- Bulk load: sort-once columnar build ---
	ts := storeBenchTriples(triples)
	report.Triples = len(ts)

	// Each phase runs best-of-2 to filter machine noise. The
	// dictionary-encoding pass, measured on a throwaway dictionary,
	// splits the load into its encode and index-build shares.
	encodeT := bestOf2(func() {
		d := rdf.NewDict(len(ts) / 4)
		for _, t := range ts {
			d.Encode(t)
		}
	})

	var st *store.Store
	bulkT := bestOf2(func() {
		st = store.New(len(ts))
		if _, err := st.Load(ts); err != nil {
			log.Fatal(err)
		}
	})
	triples = st.Len()
	// Release the raw triples before the latency section so their GC
	// pressure does not leak into it.
	ts = nil
	runtime.GC()

	report.BulkLoad.EncodeNs = encodeT.Nanoseconds()
	report.BulkLoad.BulkNs = bulkT.Nanoseconds()
	report.BulkLoad.TriplesPerSec = float64(triples) / bulkT.Seconds()
	fmt.Printf("bulk load %d triples: %s (%.0f triples/s), of which dictionary encode %s\n",
		triples, bulkT.Round(time.Millisecond), report.BulkLoad.TriplesPerSec, encodeT.Round(time.Millisecond))

	// --- Read latency: zero-copy lock-free snapshot probes ---
	// Probe (subject, predicate) pairs sampled evenly from a full scan.
	snap := st.Snapshot()
	nProbes := 1 << 14
	if nProbes > snap.Len() {
		nProbes = snap.Len()
	}
	stride := snap.Len() / nProbes
	subjects := make([]rdf.ID, 0, nProbes)
	preds := make([]rdf.ID, 0, nProbes)
	pos := 0
	snap.Scan(0, 0, func(e rdf.EncodedTriple) bool {
		if pos%stride == 0 && len(subjects) < nProbes {
			subjects = append(subjects, e.S)
			preds = append(preds, e.P)
		}
		pos++
		return true
	})
	nProbes = len(subjects)
	var mu sync.Mutex // guards sink across the probe goroutines
	sink := 0
	measureReads := func(goroutines int) float64 {
		const rounds = 8
		start := time.Now()
		if goroutines <= 1 {
			for r := 0; r < rounds; r++ {
				for i := range subjects {
					sink += len(snap.Objects(subjects[i], preds[i]))
				}
			}
		} else {
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					n := 0
					for r := 0; r < rounds; r++ {
						for i := g; i < len(subjects); i += goroutines {
							n += len(snap.Objects(subjects[i], preds[i]))
						}
					}
					mu.Lock()
					sink += n
					mu.Unlock()
				}(g)
			}
			wg.Wait()
		}
		return float64(time.Since(start).Nanoseconds()) / float64(rounds*nProbes)
	}
	goroutines := runtime.GOMAXPROCS(0)
	if goroutines > 8 {
		goroutines = 8
	}
	report.ReadLatency.SnapshotNsOp = measureReads(1)
	report.ReadLatency.Goroutines = goroutines
	report.ReadLatency.ConcurrentSnapshotNsOp = measureReads(goroutines)
	fmt.Printf("read latency (Objects probe): %.0f ns/op; at %d goroutines %.0f ns/op\n",
		report.ReadLatency.SnapshotNsOp, goroutines, report.ReadLatency.ConcurrentSnapshotNsOp)

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(jsonOut, append(data, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwrote %s (sink %d)\n", jsonOut, sink)
}

// --- ingest experiment ---

// bestOf2 times f twice and keeps the faster run, with a forced GC
// before each so one phase's garbage stays off the next phase's bill.
func bestOf2(f func()) time.Duration {
	var best time.Duration
	for i := 0; i < 2; i++ {
		runtime.GC()
		start := time.Now()
		f()
		if d := time.Since(start); best == 0 || d < best {
			best = d
		}
	}
	return best
}

// ingestBenchReport is the machine-readable result of the ingest
// experiment (BENCH_ingest.json): the streaming load (a GOMAXPROCS-wide
// pool, recorded as gomaxprocs) against the PR 3 materialize-then-encode
// path, and the binary-snapshot warm start against re-parsing.
type ingestBenchReport struct {
	Experiment  string `json:"experiment"`
	GeneratedAt string `json:"generated_at"`
	Triples     int    `json:"triples"`
	InputBytes  int    `json:"input_bytes"`
	Gomaxprocs  int    `json:"gomaxprocs"`

	// SerialNs is the pre-streaming baseline: ReadNTriples materializes
	// the whole []rdf.Triple, then Load encodes it through the shared
	// dictionary — the exact load path PR 3 shipped.
	SerialNs int64 `json:"serial_ns"`

	Stream struct {
		LoadNs        int64   `json:"load_ns"`
		TriplesPerSec float64 `json:"triples_per_sec"`
		// Speedup is against SerialNs.
		Speedup float64 `json:"speedup"`
	} `json:"stream"`

	Snapshot struct {
		FileBytes int64 `json:"file_bytes"`
		SaveNs    int64 `json:"save_ns"`
		LoadNs    int64 `json:"load_ns"`
		// SpeedupVsReparse is snapshot load against the serial parse
		// baseline — the cold start a warm restart replaces.
		SpeedupVsReparse float64 `json:"speedup_vs_reparse"`
		// SpeedupVsStream compares against the streaming load.
		SpeedupVsStream float64 `json:"speedup_vs_stream"`
	} `json:"snapshot"`
}

// runIngest measures the streaming parallel ingest pipeline and binary
// snapshot persistence, writing BENCH_ingest.json.
func runIngest(triples int, jsonOut string) {
	fmt.Println("== Ingest: parallel streaming load + binary snapshot warm start ==")
	var report ingestBenchReport
	report.Experiment = "ingest"
	report.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
	report.Gomaxprocs = runtime.GOMAXPROCS(0)

	ts := storeBenchTriples(triples)
	var docBuf bytes.Buffer
	if _, err := rdf.WriteNTriples(&docBuf, ts); err != nil {
		log.Fatal(err)
	}
	doc := docBuf.Bytes()
	ts = nil
	runtime.GC()
	report.InputBytes = len(doc)

	// Baseline: the PR 3 load path (materialize []Triple, encode serially).
	var serialStore *store.Store
	serialT := bestOf2(func() {
		parsed, err := rdf.ReadNTriples(bytes.NewReader(doc))
		if err != nil {
			log.Fatal(err)
		}
		serialStore = store.New(len(parsed))
		if _, err := serialStore.Load(parsed); err != nil {
			log.Fatal(err)
		}
	})
	report.Triples = serialStore.Len()
	report.SerialNs = serialT.Nanoseconds()
	fmt.Printf("corpus: %d distinct triples, %.1f MiB N-Triples, GOMAXPROCS=%d\n",
		serialStore.Len(), float64(len(doc))/(1<<20), report.Gomaxprocs)
	fmt.Printf("serial baseline (parse + Load): %s (%.0f triples/s)\n\n",
		serialT.Round(time.Millisecond), float64(serialStore.Len())/serialT.Seconds())

	var streamStore *store.Store
	streamT := bestOf2(func() {
		streamStore = store.New(0)
		if _, err := streamStore.LoadStream(bytes.NewReader(doc), store.StreamOptions{}); err != nil {
			log.Fatal(err)
		}
	})
	if streamStore.Len() != serialStore.Len() {
		log.Fatalf("stream load produced %d triples, serial %d", streamStore.Len(), serialStore.Len())
	}
	report.Stream.LoadNs = streamT.Nanoseconds()
	report.Stream.TriplesPerSec = float64(streamStore.Len()) / streamT.Seconds()
	report.Stream.Speedup = float64(serialT) / float64(streamT)
	fmt.Printf("streaming ingest (LoadStream):  %s (%.0f triples/s, %.2fx)\n",
		streamT.Round(time.Millisecond), report.Stream.TriplesPerSec, report.Stream.Speedup)

	// Binary snapshot: save once, then measure the warm start.
	dir, err := os.MkdirTemp("", "elinda-ingest-bench")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	snapPath := dir + "/kb.snap"
	saveT := bestOf2(func() {
		if err := streamStore.SaveSnapshot(snapPath); err != nil {
			log.Fatal(err)
		}
	})
	fi, err := os.Stat(snapPath)
	if err != nil {
		log.Fatal(err)
	}
	var loaded *store.Store
	loadT := bestOf2(func() {
		var err error
		loaded, err = store.OpenSnapshot(snapPath)
		if err != nil {
			log.Fatal(err)
		}
	})
	if loaded.Len() != serialStore.Len() || loaded.Generation() != streamStore.Generation() {
		log.Fatalf("snapshot round trip diverged: len %d/%d gen %d/%d",
			loaded.Len(), serialStore.Len(), loaded.Generation(), streamStore.Generation())
	}
	report.Snapshot.FileBytes = fi.Size()
	report.Snapshot.SaveNs = saveT.Nanoseconds()
	report.Snapshot.LoadNs = loadT.Nanoseconds()
	report.Snapshot.SpeedupVsReparse = float64(serialT) / float64(loadT)
	report.Snapshot.SpeedupVsStream = float64(streamT) / float64(loadT)
	fmt.Printf("\nsnapshot: %.1f MiB, save %s, load %s — warm start %.1fx faster than re-parsing (%.1fx vs streaming ingest)\n",
		float64(fi.Size())/(1<<20), saveT.Round(time.Millisecond), loadT.Round(time.Millisecond),
		report.Snapshot.SpeedupVsReparse, report.Snapshot.SpeedupVsStream)

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(jsonOut, append(data, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwrote %s\n", jsonOut)
}

// --- wal experiment ---

// walBenchReport is the machine-readable result of the wal experiment
// (BENCH_wal.json): the per-record acknowledgment cost of each fsync
// policy on the real filesystem, and the boot-time replay rate.
type walBenchReport struct {
	Experiment  string `json:"experiment"`
	GeneratedAt string `json:"generated_at"`
	Records     int    `json:"records"`

	Append []walAppendResult `json:"append"`

	Replay struct {
		Records       int     `json:"records"`
		Segments      uint64  `json:"segments"`
		TotalNs       int64   `json:"total_ns"`
		NsOp          float64 `json:"ns_op"`
		RecordsPerSec float64 `json:"records_per_sec"`
	} `json:"replay"`
}

// walAppendResult is one fsync policy's append measurement.
type walAppendResult struct {
	Name          string  `json:"name"`
	Records       int     `json:"records"`
	TotalNs       int64   `json:"total_ns"`
	NsOp          float64 `json:"ns_op"`
	RecordsPerSec float64 `json:"records_per_sec"`
	Syncs         uint64  `json:"syncs"`
}

// runWAL measures the write-ahead log on the real filesystem: what one
// durably acknowledged Add costs under each -wal-sync policy (the price
// of the crash guarantee), and how fast a boot replays the log back.
// Writes BENCH_wal.json.
func runWAL(records int, jsonOut string) {
	fmt.Println("== WAL: append cost per fsync policy + boot replay ==")
	var report walBenchReport
	report.Experiment = "wal"
	report.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
	report.Records = records

	ts := storeBenchTriples(records)
	if len(ts) > records {
		ts = ts[:records]
	}
	ops := make([]rdf.TripleOp, len(ts))
	for i, t := range ts {
		ops[i] = rdf.Insert(t)
	}

	policies := []struct {
		name   string
		policy wal.SyncPolicy
		n      int
	}{
		// SyncAlways pays one fsync per append; a tenth of the records
		// keeps the experiment CI-sized without blurring the per-op cost.
		{"always", wal.SyncAlways, len(ts)/10 + 1},
		{"interval", wal.SyncInterval, len(ts)},
		{"off", wal.SyncOff, len(ts)},
	}
	fmt.Printf("%-10s %10s %14s %14s %16s %8s\n", "policy", "records", "total", "ns/op", "records/s", "syncs")
	for _, pc := range policies {
		dir, err := os.MkdirTemp("", "elinda-wal-bench")
		if err != nil {
			log.Fatal(err)
		}
		w, err := wal.Open(dir, wal.Options{Policy: pc.policy})
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		for i := range ops[:pc.n] {
			if err := w.AppendOps(ops[i : i+1]); err != nil {
				log.Fatal(err)
			}
		}
		elapsed := time.Since(start)
		stats := w.Stats()
		if err := w.Close(); err != nil {
			log.Fatal(err)
		}
		os.RemoveAll(dir)
		r := walAppendResult{
			Name:          pc.name,
			Records:       pc.n,
			TotalNs:       elapsed.Nanoseconds(),
			NsOp:          float64(elapsed.Nanoseconds()) / float64(pc.n),
			RecordsPerSec: float64(pc.n) / elapsed.Seconds(),
			Syncs:         stats.Syncs,
		}
		report.Append = append(report.Append, r)
		fmt.Printf("%-10s %10d %14s %14.0f %16.0f %8d\n", pc.name, pc.n,
			elapsed.Round(time.Microsecond), r.NsOp, r.RecordsPerSec, r.Syncs)
	}

	// Boot replay: write the full log once (no per-append sync — replay
	// speed is independent of how the log was synced), then reopen and
	// replay, the same sequence elinda-server runs before serving.
	dir, err := os.MkdirTemp("", "elinda-wal-bench")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	w, err := wal.Open(dir, wal.Options{Policy: wal.SyncOff})
	if err != nil {
		log.Fatal(err)
	}
	if err := w.AppendOps(ops); err != nil {
		log.Fatal(err)
	}
	if err := w.Close(); err != nil {
		log.Fatal(err)
	}
	var segments uint64
	if entries, err := os.ReadDir(dir); err == nil {
		for _, e := range entries {
			if strings.HasSuffix(e.Name(), ".log") {
				segments++
			}
		}
	}
	var replayed int
	replayT := bestOf2(func() {
		r, err := wal.Open(dir, wal.Options{})
		if err != nil {
			log.Fatal(err)
		}
		replayed = 0
		n, err := r.ReplayOps(func(rdf.TripleOp) error { replayed++; return nil })
		if err != nil {
			log.Fatal(err)
		}
		if n != len(ts) {
			log.Fatalf("replay returned %d of %d records", n, len(ts))
		}
		if err := r.Close(); err != nil {
			log.Fatal(err)
		}
	})
	report.Replay.Records = replayed
	report.Replay.Segments = segments
	report.Replay.TotalNs = replayT.Nanoseconds()
	report.Replay.NsOp = float64(replayT.Nanoseconds()) / float64(replayed)
	report.Replay.RecordsPerSec = float64(replayed) / replayT.Seconds()
	fmt.Printf("\nboot replay: %d records in %s (%.0f records/s)\n",
		replayed, replayT.Round(time.Microsecond), report.Replay.RecordsPerSec)

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(jsonOut, append(data, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwrote %s\n", jsonOut)
}

// --- update experiment ---

// updateBenchReport is the machine-readable result of the update
// experiment (BENCH_update.json): the cost of one atomic Apply per delta
// size, and what footprint-based retention saves over the paper's
// wholesale cache clear.
type updateBenchReport struct {
	Experiment  string `json:"experiment"`
	GeneratedAt string `json:"generated_at"`
	Triples     int    `json:"triples"`

	Apply []updateApplyResult `json:"apply"`

	HVS struct {
		Entries          int     `json:"entries"`
		Retained         int     `json:"retained"`
		Evicted          int     `json:"evicted"`
		RetentionPct     float64 `json:"retention_pct"`
		ServeRetainedNs  int64   `json:"serve_retained_ns"`
		ServeWholesaleNs int64   `json:"serve_wholesale_ns"`
		Speedup          float64 `json:"speedup"`
	} `json:"hvs"`
}

// updateApplyResult is the Apply measurement at one delta size.
type updateApplyResult struct {
	Name          string  `json:"name"`
	DeltaSize     int     `json:"delta_size"`
	Deltas        int     `json:"deltas"`
	Ops           int     `json:"ops"`
	TotalNs       int64   `json:"total_ns"`
	NsDelta       float64 `json:"delta_ns_op"`
	NsOp          float64 `json:"ns_op"`
	TriplesPerSec float64 `json:"triples_per_sec"`
}

// updateWorkload pre-builds a fixed sequence of deltas over the base
// dataset: each delta mixes inserts of fresh triples with deletes of
// live base triples (never the same one twice), the half-and-half mix a
// live feed produces. Pre-building keeps triple construction off the
// timed path.
func updateWorkload(base []rdf.Triple, deltas, size int) []store.Delta {
	pool := make([]rdf.Triple, len(base))
	copy(pool, base)
	r := rand.New(rand.NewSource(11))
	r.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	next := 0
	fresh := 0
	op := 0
	out := make([]store.Delta, deltas)
	for d := range out {
		for i := 0; i < size; i++ {
			op++
			// A global alternation keeps the insert/delete mix at 50/50
			// for every delta size (a per-delta index would make size-1
			// runs all-insert and the rows incomparable).
			if op%2 == 0 || next >= len(pool) {
				out[d].Insert(rdf.Triple{
					S: rdf.NewIRI(fmt.Sprintf("http://elinda.dev/bench/update/s%d", fresh)),
					P: rdf.NewIRI(fmt.Sprintf("http://elinda.dev/bench/update/p%d", fresh%7)),
					O: rdf.NewIRI(fmt.Sprintf("http://elinda.dev/bench/update/o%d", fresh%97)),
				})
				fresh++
			} else {
				out[d].Delete(pool[next])
				next++
			}
		}
	}
	return out
}

// runUpdate measures the live mutation path end to end: Store.Apply
// latency per delta size (tombstone deletes included) and footprint-based
// HVS retention against the wholesale clear it replaces. Writes
// BENCH_update.json.
func runUpdate(persons int, jsonOut string) {
	fmt.Println("== Update: Apply latency, HVS delta retention ==")
	var report updateBenchReport
	report.Experiment = "update"
	report.GeneratedAt = time.Now().UTC().Format(time.RFC3339)

	cfg := elinda.DefaultDataConfig()
	cfg.Persons = persons
	base := elinda.GenerateDBpediaLike(cfg).Triples
	report.Triples = len(base)
	fmt.Printf("dataset: %d triples\n\n", len(base))

	// --- Apply latency per delta size ---
	// A fixed op budget split into deltas of each size, against a fresh
	// store per size so tombstone/compaction state cannot leak between
	// rows. The per-delta figure is the latency a client sees per atomic
	// update; the per-op figure shows the batching amortization.
	const opBudget = 8192
	fmt.Printf("%-12s %8s %8s %14s %14s %12s %16s\n",
		"delta size", "deltas", "ops", "total", "ns/delta", "ns/op", "triples/s")
	for _, size := range []int{1, 16, 256, 2048} {
		n := opBudget / size
		if n < 1 {
			n = 1
		}
		// Single-op deltas pay the whole per-Apply cost 8192 times; cap
		// the count so the row prices the per-delta latency without
		// dominating the experiment's wall clock.
		if n > 2048 {
			n = 2048
		}
		st := store.New(len(base))
		if _, err := st.Load(base); err != nil {
			log.Fatal(err)
		}
		ds := updateWorkload(base, n, size)
		runtime.GC()
		start := time.Now()
		for _, d := range ds {
			if _, err := st.Apply(d); err != nil {
				log.Fatal(err)
			}
		}
		elapsed := time.Since(start)
		ops := n * size
		r := updateApplyResult{
			Name:          fmt.Sprintf("delta-%d", size),
			DeltaSize:     size,
			Deltas:        n,
			Ops:           ops,
			TotalNs:       elapsed.Nanoseconds(),
			NsDelta:       float64(elapsed.Nanoseconds()) / float64(n),
			NsOp:          float64(elapsed.Nanoseconds()) / float64(ops),
			TriplesPerSec: float64(ops) / elapsed.Seconds(),
		}
		report.Apply = append(report.Apply, r)
		fmt.Printf("%-12d %8d %8d %14s %14.0f %12.0f %16.0f\n",
			size, n, ops, elapsed.Round(time.Microsecond), r.NsDelta, r.NsOp, r.TriplesPerSec)
	}

	// --- HVS retention vs the wholesale clear ---
	// One cached heavy query per predicate, then a write that touches a
	// single predicate. Footprint retention keeps every disjoint entry;
	// the pre-delta design cleared them all. The two serve passes price
	// the difference: answering the surviving set from cache vs
	// re-executing it from scratch.
	sys, err := elinda.OpenWithOptions(base, proxy.Options{HeavyThreshold: time.Nanosecond})
	if err != nil {
		log.Fatal(err)
	}
	seen := map[string]bool{}
	var predTerms []rdf.Term
	var queries []string
	sys.Store.Scan(0, 0, func(e rdf.EncodedTriple) bool {
		p := sys.Store.Triple(e).P
		if k := p.String(); !seen[k] {
			seen[k] = true
			predTerms = append(predTerms, p)
			queries = append(queries, fmt.Sprintf("SELECT ?s WHERE { ?s %s ?o }", k))
		}
		return len(queries) < 16
	})
	ctx := context.Background()
	serveAll := func(qs []string) time.Duration {
		start := time.Now()
		for _, q := range qs {
			if _, err := sys.Proxy.Query(ctx, q); err != nil {
				log.Fatal(err)
			}
		}
		return time.Since(start)
	}
	serveAll(queries) // warm: every query recorded with its footprint
	_, err = sys.Apply(elinda.DeltaOf(elinda.Insert(rdf.Triple{
		S: rdf.NewIRI("http://elinda.dev/bench/update/hvs-s"),
		P: predTerms[0],
		O: rdf.NewIRI("http://elinda.dev/bench/update/hvs-o"),
	})))
	if err != nil {
		log.Fatal(err)
	}
	cs := sys.Proxy.HVS().Stats()
	report.HVS.Entries = len(queries)
	report.HVS.Retained = cs.DeltaRetained
	report.HVS.Evicted = cs.DeltaEvictions
	if len(queries) > 0 {
		report.HVS.RetentionPct = 100 * float64(cs.DeltaRetained) / float64(len(queries))
	}
	survivors := queries[1:]
	retainedServe := serveAll(survivors)
	sys.Proxy.HVS().Invalidate() // what the pre-footprint design did on every write
	wholesaleServe := serveAll(survivors)
	report.HVS.ServeRetainedNs = retainedServe.Nanoseconds()
	report.HVS.ServeWholesaleNs = wholesaleServe.Nanoseconds()
	if retainedServe > 0 {
		report.HVS.Speedup = float64(wholesaleServe) / float64(retainedServe)
	}
	fmt.Printf("\nHVS after a single-predicate write: %d/%d entries retained (%.0f%%)\n",
		cs.DeltaRetained, len(queries), report.HVS.RetentionPct)
	fmt.Printf("serving the %d survivors: retained %s vs wholesale-clear %s (%.1fx)\n",
		len(survivors), retainedServe.Round(time.Microsecond),
		wholesaleServe.Round(time.Microsecond), report.HVS.Speedup)

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(jsonOut, append(data, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwrote %s\n", jsonOut)
}

// --- bench-trend comparison (-compare) ---

// runCompare loads two BENCH_*.json files and compares every shared
// timing leaf (keys ending in _ns or ns_op; nanoseconds, lower is
// better). A leaf that slowed down by more than the tolerance is a
// regression; any regression exits nonzero so CI can gate (or warn) on
// it. Sub-50µs baselines are skipped — at that scale, runner noise
// swamps any real signal.
func runCompare(args []string, tolerance string) {
	var files []string
	for i := 0; i < len(args); i++ {
		// Accept "-tolerance 3x" after the positional file arguments too
		// (the flag package stops parsing at the first positional).
		if args[i] == "-tolerance" && i+1 < len(args) {
			tolerance = args[i+1]
			i++
			continue
		}
		files = append(files, args[i])
	}
	if len(files) != 2 {
		log.Fatal("usage: elinda-bench -compare old.json new.json [-tolerance 3x]")
	}
	tol := parseTolerance(tolerance)
	oldLeaves := timingLeaves(loadBenchJSON(files[0]))
	newLeaves := timingLeaves(loadBenchJSON(files[1]))

	const noiseFloorNs = 50_000.0
	var keys []string
	for k := range oldLeaves {
		if _, ok := newLeaves[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	if len(keys) == 0 {
		log.Fatalf("no shared timing leaves between %s and %s", files[0], files[1])
	}

	fmt.Printf("bench trend: %s -> %s (tolerance %.2fx, noise floor %s)\n",
		files[0], files[1], tol, time.Duration(noiseFloorNs))
	fmt.Printf("%-60s %14s %14s %8s\n", "metric", "old", "new", "ratio")
	regressions := 0
	for _, k := range keys {
		o, n := oldLeaves[k], newLeaves[k]
		mark := ""
		ratio := 0.0
		if o > 0 {
			ratio = n / o
		}
		switch {
		case o < noiseFloorNs:
			mark = "  (below noise floor, ignored)"
		case o > 0 && ratio > tol:
			mark = "  << REGRESSION"
			regressions++
		}
		fmt.Printf("%-60s %14s %14s %7.2fx%s\n", k,
			time.Duration(int64(o)).Round(time.Microsecond),
			time.Duration(int64(n)).Round(time.Microsecond), ratio, mark)
	}
	if regressions > 0 {
		fmt.Printf("\n%d timing(s) regressed beyond %.2fx\n", regressions, tol)
		os.Exit(1)
	}
	fmt.Printf("\nno regressions beyond %.2fx\n", tol)
}

// parseTolerance accepts "3x", "2.5x", or a bare ratio like "3".
func parseTolerance(s string) float64 {
	s = strings.TrimSuffix(strings.TrimSpace(s), "x")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || v <= 0 {
		log.Fatalf("bad -tolerance %q (want e.g. 3x)", s)
	}
	return v
}

// exitMissingInput distinguishes "an input file is absent" (baseline not
// committed yet, or `make benchjson-quick` not run) from exit 1, which
// -compare reserves for a real timing regression. CI and scripts can
// branch on it instead of parsing the message.
const exitMissingInput = 3

func loadBenchJSON(path string) any {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		log.Printf("%s does not exist: generate it first (make benchjson-quick for fresh numbers, or commit a baseline under bench/baselines/)", path)
		os.Exit(exitMissingInput)
	}
	if err != nil {
		log.Fatal(err)
	}
	var doc any
	if err := json.Unmarshal(data, &doc); err != nil {
		log.Fatalf("%s: %v", path, err)
	}
	return doc
}

// timingLeaves walks a decoded JSON tree and collects numeric leaves
// whose key names a nanosecond timing, under dotted (and bracketed)
// paths. Array elements are labeled by a sibling identity field (name or
// workers) when one exists, so baselines stay comparable when entries
// reorder.
func timingLeaves(doc any) map[string]float64 {
	out := map[string]float64{}
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		switch x := v.(type) {
		case map[string]any:
			for k, vv := range x {
				p := k
				if prefix != "" {
					p = prefix + "." + k
				}
				if f, ok := vv.(float64); ok && isTimingKey(k) {
					out[p] = f
					continue
				}
				walk(p, vv)
			}
		case []any:
			for i, vv := range x {
				label := fmt.Sprint(i)
				if m, ok := vv.(map[string]any); ok {
					if name, ok := m["name"].(string); ok {
						label = name
					} else if wk, ok := m["workers"].(float64); ok {
						label = fmt.Sprintf("workers=%d", int(wk))
					}
				}
				walk(prefix+"["+label+"]", vv)
			}
		}
	}
	walk("", doc)
	return out
}

func isTimingKey(k string) bool {
	if k == "sum_ns" {
		// A histogram's running total scales with request count, not
		// speed; comparing it across runs would only add noise.
		return false
	}
	return strings.HasSuffix(k, "_ns") || strings.HasSuffix(k, "ns_op")
}

// joinBenchRow is one workload measurement in BENCH_join.json.
type joinBenchRow struct {
	Name   string `json:"name"`
	Rows   int    `json:"rows"`
	ExecNs int64  `json:"exec_ns"` // best of 3
}

// joinBenchReport is the machine-readable result of the join experiment.
type joinBenchReport struct {
	Experiment  string         `json:"experiment"`
	GeneratedAt string         `json:"generated_at"`
	Nodes       int            `json:"nodes"`
	Triples     int            `json:"triples"`
	Workloads   []joinBenchRow `json:"workloads"`
}

// joinGraph builds the skewed synthetic digraph the join experiment
// queries: every node has a few random out-edges, a small set of hubs
// has many, and type marks partition the nodes for the star workload.
// The skew is the point — a join pays degree(hub) probes per
// intermediate row unless the multiway intersection gallops past them.
func joinGraph(nodes int) *store.Store {
	r := rand.New(rand.NewSource(7))
	node := func(i int) rdf.Term { return rdf.NewIRI(fmt.Sprintf("http://example.org/n%d", i)) }
	edge := rdf.NewIRI("http://example.org/edge")
	hub := rdf.NewIRI("http://example.org/Hub")
	active := rdf.NewIRI("http://example.org/Active")

	var ts []rdf.Triple
	for i := 0; i < nodes; i++ {
		deg := 16 + r.Intn(16)
		if i < nodes/50 { // the hub slice
			deg = nodes / 16
			ts = append(ts, rdf.Triple{S: node(i), P: rdf.TypeIRI, O: hub})
		}
		if i%5 == 0 {
			ts = append(ts, rdf.Triple{S: node(i), P: rdf.TypeIRI, O: active})
		}
		for k := 0; k < deg; k++ {
			ts = append(ts, rdf.Triple{S: node(i), P: edge, O: node(r.Intn(nodes))})
		}
	}
	st := store.New(len(ts))
	if _, err := st.Load(ts); err != nil {
		log.Fatal(err)
	}
	return st
}

// runJoin times the planner and join operators on cyclic (triangle),
// star and chain BGPs over the skewed graph, as a regression signal for
// the one execution path, and writes BENCH_join.json.
func runJoin(nodes int, jsonOut string, explain bool) {
	fmt.Println("== Join: triangle, star and chain BGPs ==")
	st := joinGraph(nodes)
	fmt.Printf("dataset: %d triples (%d nodes, skewed out-degree)\n\n", st.Len(), nodes)

	workloads := []struct {
		name string
		src  string
	}{
		{"triangle", `SELECT ?a ?b ?c WHERE {
  ?a <http://example.org/edge> ?b .
  ?b <http://example.org/edge> ?c .
  ?c <http://example.org/edge> ?a . }`},
		{"star", `SELECT ?s ?o WHERE {
  ?s a <http://example.org/Hub> .
  ?s a <http://example.org/Active> .
  ?s <http://example.org/edge> ?o . }`},
		{"chain", `SELECT ?a ?b ?c WHERE {
  ?a <http://example.org/edge> ?b .
  ?b <http://example.org/edge> ?c .
  ?a a <http://example.org/Hub> .
  ?c a <http://example.org/Active> . }`},
	}

	eng := sparql.NewEngine(st)
	report := joinBenchReport{
		Experiment:  "join",
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Nodes:       nodes,
		Triples:     st.Len(),
	}
	fmt.Printf("%-10s %9s %14s\n", "workload", "rows", "t(best of 3)")
	for _, w := range workloads {
		q, err := sparql.Parse(w.src)
		if err != nil {
			log.Fatalf("%s: %v", w.name, err)
		}
		if explain {
			rep, err := eng.Explain(context.Background(), w.src)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("-- %s --\n%s", w.name, rep.String())
		}
		d, rows := bestOf3(eng, q)
		fmt.Printf("%-10s %9d %14s\n", w.name, rows, d.Round(time.Microsecond))
		report.Workloads = append(report.Workloads, joinBenchRow{Name: w.name, Rows: rows, ExecNs: d.Nanoseconds()})
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(jsonOut, append(data, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwrote %s\n", jsonOut)
}
