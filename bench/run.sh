#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's sources and runs it
# with the given arguments, e.g.
#
#   bash bench/run.sh --workload paper-campaign --seed 7 --seconds 10 --trace 0
#   bash bench/run.sh                  # every workload, each in a child process
#   bash bench/run.sh compare -parent ../parent -change .
#
# Everything the build and the run leave behind (Go build cache, the
# calibration cache, archives, service data) stays under .bench_build in
# the checkout; no network access is attempted.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/work"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOENV=off GOWORK=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local

(cd "$root/bench" && go build -o "$build/bench" .)
if [ "${1:-}" = compare ]; then
	exec "$build/bench" "$@"
fi
exec "$build/bench" -workdir "$build/work" "$@"
