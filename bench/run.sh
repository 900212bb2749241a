#!/bin/sh
# Entry point of the BENCHMARK.json contract: build the benchmark inside
# the checkout it is run from, then hand it the arguments. The build cache
# and temporary files are kept under .bench_build so that nothing outside
# the checkout is read or written; the first run in a checkout therefore
# compiles everything, the later ones nothing.
set -eu
root=$(pwd)
export GOCACHE="$root/.bench_build/gocache" GOTMPDIR="$root/.bench_build/gotmp" GOTOOLCHAIN=local
mkdir -p "$GOTMPDIR"
go build -o .bench_build/bin/bench ./bench
exec .bench_build/bin/bench "$@"
