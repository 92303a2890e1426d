GO ?= go

.PHONY: all build test race vet lint fuzz-smoke bench benchjson benchjson-quick bench-compare bench-smoke cover check server

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# BENCHES lists the machine-readable trajectory files: BENCH_<name>.json
# is written by benchjson (full size) or benchjson-quick (CI size: same
# JSON shape, smaller datasets, so the workflow stays fast — runner
# numbers are for trend inspection only) and checked by bench-compare.
# Adding a bench is one name here plus its variables below: the program,
# its full-size arguments and its CI-size arguments (unset = defaults).
BENCHES := query store ingest wal fleet update join serve

bench_query  := ./cmd/elinda-bench -experiment query-engine
full_query   := -persons 5000
quick_query  := -persons 2000
bench_store  := ./cmd/elinda-bench -experiment store-snapshot
quick_store  := -triples 200000
bench_ingest := ./cmd/elinda-bench -experiment ingest
quick_ingest := -triples 200000
bench_wal    := ./cmd/elinda-bench -experiment wal
quick_wal    := -wal-records 5000
bench_fleet  := ./cmd/elinda-bench -experiment fleet
quick_fleet  := -facts-persons 1000
bench_update := ./cmd/elinda-bench -experiment update
full_update  := -persons 5000
quick_update := -persons 2000
bench_join   := ./cmd/elinda-bench -experiment join
quick_join   := -join-nodes 800
bench_serve  := ./cmd/elinda-loadgen
full_serve   := -persons 5000 -concurrency 16 -duration 5s
quick_serve  := -persons 1000 -concurrency 8 -duration 2s

benchjson: $(BENCHES:%=benchjson-%)
benchjson-quick: $(BENCHES:%=benchjson-quick-%)

$(BENCHES:%=benchjson-%): benchjson-%: build
	$(GO) run $(bench_$*) $(full_$*)

$(BENCHES:%=benchjson-quick-%): benchjson-quick-%: build
	$(GO) run $(bench_$*) $(quick_$*)

# bench-compare checks freshly generated BENCH_*.json files against the
# committed CI-sized baselines (run `make benchjson-quick` first). The 3x
# tolerance absorbs runner noise; a real regression still trips it. One
# target per file, so `make -k bench-compare` reports every file.
bench-compare: $(BENCHES:%=bench-compare-%)

$(BENCHES:%=bench-compare-%): bench-compare-%:
	$(GO) run ./cmd/elinda-bench -compare bench/baselines/BENCH_$*.json BENCH_$*.json -tolerance 3x

# bench-smoke vets and smoke-runs the gating benchmark (its own module
# under benchmark/, which `go test ./...` here does not descend into): a
# change that breaks one of the seams it calls fails here, not first in
# the gating run.
bench-smoke:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# lint runs the project's own invariant analyzers (internal/lint) over
# every package: snapshot binding, zero-copy slice escapes, ctx polling
# in data-sized loops, map-iteration-order leaks, and lock balance on the
# dictionary publish side. Findings are build breaks, not warnings;
# deliberate exceptions carry a //lint:ignore <analyzer> <reason> line.
lint:
	$(GO) run ./cmd/elinda-lint ./...

# fuzz-smoke gives each fuzz target a short budget on top of the
# committed corpus under testdata/fuzz/. Go allows one -fuzz pattern per
# invocation, so the targets run back to back. The minimize budget is
# capped so a new interesting input cannot eat the whole run.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzStreamChunks$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 5s ./internal/rdf
	$(GO) test -run '^$$' -fuzz '^FuzzDetectFormat$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 5s ./internal/rdf
	$(GO) test -run '^$$' -fuzz '^FuzzReadSnapshot$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 5s ./internal/store
	$(GO) test -run '^$$' -fuzz '^FuzzWALReplay$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 5s ./internal/wal

# cover writes the coverage profile and prints the per-function totals.
cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -1

# check runs the tier-1 gate plus vet and the race detector as one
# command. The race run includes the snapshot concurrency tests
# (store.TestSnapshotConcurrentWithWrites, sparql parallel/differential)
# and the serving-tier coalescing/limiter races.
check: build vet lint test race

server: build
	$(GO) run ./cmd/elinda-server
