// Command performance reproduces the second demonstration scenario of
// Section 5 and the measurements of Figure 4: it runs the level-zero
// outgoing and incoming property-expansion queries with the paper's
// optimizations "turned on and off", printing the runtime for each store
// configuration — plain generic engine (the Virtuoso role), eLinda
// decomposer, and HVS hit — plus a demonstration of chunked incremental
// evaluation. Proxy options are fixed at construction, so each
// configuration is its own executor over the one loaded store: the
// engine alone, a proxy whose heaviness threshold no answer reaches (the
// HVS stays empty), and a proxy caching every answer, decomposer off.
//
// Usage:
//
//	go run ./examples/performance [-persons N]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"elinda"
	"elinda/internal/core"
	"elinda/internal/endpoint"
	"elinda/internal/incremental"
	"elinda/internal/proxy"
	"elinda/internal/rdf"
	"elinda/internal/sparql"
)

func main() {
	persons := flag.Int("persons", 5000, "size of the Person subtree (bigger = heavier queries)")
	flag.Parse()
	log.SetFlags(0)

	cfg := elinda.DefaultDataConfig()
	cfg.Persons = *persons
	ds := elinda.GenerateDBpediaLike(cfg)
	sys, err := elinda.Open(ds.Triples)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Dataset: %d triples\n\n", sys.Store.Len())

	queries := map[string]string{
		"outgoing": core.PropertyExpansionSPARQL(rdf.OWLThingIRI, false),
		"incoming": core.PropertyExpansionSPARQL(rdf.OWLThingIRI, true),
	}

	configs := []struct {
		name string
		exec endpoint.Executor
		warm bool
	}{
		{"Virtuoso (generic engine, no eLinda optimizations)",
			sparql.NewEngine(sys.Store), false},
		{"eLinda decomposer (HVS off)",
			proxy.New(sys.Store, proxy.Options{HeavyThreshold: time.Hour}), false},
		{"eLinda HVS (warm cache)",
			proxy.New(sys.Store, proxy.Options{HeavyThreshold: time.Nanosecond, DisableDecomposer: true}), true},
	}

	fmt.Println("Figure 4 — runtimes of level-zero property expansions:")
	fmt.Printf("%-52s %12s %12s\n", "configuration", "outgoing", "incoming")
	for _, c := range configs {
		times := map[string]time.Duration{}
		for dir, q := range queries {
			if c.warm {
				// Warm the cache with one pass first.
				if _, err := c.exec.Query(context.Background(), q); err != nil {
					log.Fatal(err)
				}
			}
			start := time.Now()
			if _, err := c.exec.Query(context.Background(), q); err != nil {
				log.Fatal(err)
			}
			times[dir] = time.Since(start)
		}
		fmt.Printf("%-52s %12s %12s\n", c.name, times["outgoing"].Round(time.Microsecond), times["incoming"].Round(time.Microsecond))
	}

	// --- Incremental evaluation (the technique that keeps even the slow
	// path interactive): partial charts after every chunk of N triples ---
	fmt.Println("\nIncremental evaluation of the outgoing property chart (N = 1/5 of the data):")
	ev := incremental.New(sys.Store, incremental.Config{ChunkSize: sys.Store.Len()/5 + 1})
	agg := incremental.NewPropertyAggregator(nil, false)
	start := time.Now()
	_, err = ev.Run(context.Background(), agg, func(s incremental.Snapshot) bool {
		fmt.Printf("  round %d: %8d triples scanned, %4d properties found so far (t=%s)\n",
			s.Round, s.TriplesSeen, len(s.Counts), time.Since(start).Round(time.Microsecond))
		return true
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nThe first partial chart arrives after ~1/5 of the scan time — the")
	fmt.Println("\"effective latency for user interaction\" of Section 4.")
}
