GO ?= go

.PHONY: all build test race vet lint fuzz-smoke bench bench-smoke benchmark cover loc check server

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

# bench-smoke vets and smoke-runs the gating benchmark (its own module
# under benchmark/, which `go test ./...` here does not descend into): a
# change that breaks one of the seams it calls fails here, not first in
# the gating run.
bench-smoke:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# benchmark is the gating run itself: all four BENCHMARK.json workloads
# at the canonical 1.1M-triple scale (reports under benchmark/out/).
benchmark:
	bash benchmark/run.sh --workload all

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
	$(GO) test -run '^$$' -fuzz '^FuzzJSONRow$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 5s ./internal/endpoint
	$(GO) test -run '^$$' -fuzz '^FuzzParseQuery$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 5s ./internal/sparql
	$(GO) test -run '^$$' -fuzz '^FuzzParseUpdate$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 5s ./internal/sparql

# cover writes the coverage profile and prints the per-function totals.
cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -1

# loc prints the number of non-test Go lines outside benchmark/: the
# size the ROADMAP and CHANGES.md track from change to change. It counts
# committed files only (git ls-files), so stage new files first.
loc:
	@git ls-files '*.go' ':!:*_test.go' ':!:benchmark/**' | xargs cat | wc -l

# check runs the tier-1 gate plus vet and the race detector as one
# command. The race run includes the snapshot concurrency tests
# (store.TestSnapshotConcurrentWithWrites, sparql concurrency/differential)
# and the serving-tier coalescing/limiter races.
check: build vet lint test race

# server boots on a generated 2000-person dataset (the server itself
# starts empty without a data flag).
server: build
	$(GO) run ./cmd/elinda-gen -persons 2000 -o demo.nt
	$(GO) run ./cmd/elinda-server -load demo.nt
