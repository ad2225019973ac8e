#!/usr/bin/env bash
# Builds cmd/bench into .bench_build/ at the root of the checkout and
# runs it with the arguments given. Run from the root of the checkout:
#   bash cmd/bench/run.sh [-workload w] [-seed n] [-seconds s] [-trace 0|1] ...
# The Go build cache is kept inside .bench_build/ too, so nothing is
# written outside the checkout.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
GOCACHE="$build/gocache" GOPROXY=off GOTOOLCHAIN=local \
	go build -C cmd/bench -o "$build/bench" .
exec "$build/bench" "$@"
