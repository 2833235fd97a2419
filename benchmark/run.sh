#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the harness from the checkout it
# is run in and runs it with the arguments given. Everything the build and the
# run write (Go's build cache, temporary files, the binary, checkpoint files)
# goes under .bench_build in that checkout.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOFLAGS=-buildvcs=false
go build -o "$build/ftpde-benchmark" ./benchmark
exec "$build/ftpde-benchmark" -tmp "$build/tmp" "$@"
