#!/usr/bin/env bash
# Builds the benchmark and the trace validator from the checkout this
# script lives in, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload samate-verify --seed 1 --seconds 10 --trace 0
#
# Every build product and Go cache goes under .bench_build at the root of
# the checkout, so a run reads and writes nothing outside it.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f go.mod || ! -d internal || ! -d cmd/tracecheck ]]; then
	echo "perfbench: $root does not hold the repository's sources" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/home"
export HOME="$out/home"
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod
export GOPROXY=off
export GOTELEMETRY=off

go build -o "$out/tracecheck" ./cmd/tracecheck
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" -tracecheck "$out/tracecheck" "$@"
