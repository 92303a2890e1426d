// Command elinda-bench measures the one thing the gating benchmark
// (BENCHMARK.json, benchmark/) cannot host yet: the routed read fleet —
// router overhead at p50 and p99 with and without hedging under one slow
// replica, on an in-process coordinator + 3 replicas + router. Its
// numbers are not gated and no baseline is committed; it goes away when
// benchmark/ gains a fleet workload (ROADMAP item 2a).
//
// Usage:
//
//	elinda-bench [-persons N] [-json-out report.json]
package main

import (
	"flag"
	"log"
)

func main() {
	persons := flag.Int("persons", 2000, "synthetic dataset size (Person subtree)")
	jsonOut := flag.String("json-out", "", "also write the report as JSON to this path")
	flag.Parse()
	log.SetFlags(0)
	runFleet(*persons, *jsonOut)
}
