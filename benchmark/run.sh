#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the harness from this
# checkout's source and runs it from the checkout root. Everything it
# writes (Go build cache, binaries, scratch data) stays under .bench_build/
# and benchmark/out/ inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
export GOCACHE="${GOCACHE:-$root/.bench_build/go-cache}"
mkdir -p "$root/.bench_build/bin"
(cd "$here" && go build -o "$root/.bench_build/bin/elinda-benchmark" .)
cd "$root"
exec "$root/.bench_build/bin/elinda-benchmark" "$@"
