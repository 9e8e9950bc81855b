#!/usr/bin/env bash
# Builds flintperf from the checkout and runs it with the given
# arguments. Run from the repository root:
#   bash flintperf/run.sh --workload serve-single --seed 1 --seconds 20 --trace 0
# Build products and the Go build cache stay under .bench_build.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off
mkdir -p "$build"
(cd "$root/flintperf" && go build -o "$build/flintperf" .) >&2
exec "$build/flintperf" "$@"
