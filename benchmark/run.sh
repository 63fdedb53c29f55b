#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given. This is BENCHMARK.json's command, run from the root of a
# checkout: bash benchmark/run.sh --workload put-small --seed 1 --seconds 10 --trace 0
#
# Everything the Go toolchain writes (build cache, module cache, temporary
# files, the binary) goes under .bench_build/ in the checkout; the store and
# the trace go under benchmark/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOFLAGS=
(cd "$here" && go build -o "$build/benchmark" .)
exec "$build/benchmark" -out "$here/out" "$@"
