#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it:
#
#   bash benchmark/run.sh --workload serve_mixed --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays inside the checkout: the Go
# build cache, the toolchain's temporary files and the binary go under
# .bench_build/, traces and results under benchmark/out/.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
# The checkout the driver runs in is no git repository, and one that is may
# not be ours to query: stamp the commit by hand when git answers.
export GOFLAGS=-buildvcs=false
export BENCH_COMMIT="${BENCH_COMMIT:-$(git rev-parse HEAD 2>/dev/null || echo unknown)}"
go build -o "$build/flumen-benchmark" ./benchmark
exec "$build/flumen-benchmark" "$@"
