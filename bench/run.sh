#!/usr/bin/env bash
# Builds polyufc-serve and the benchmark harness from source into
# .bench_build/ (Go's caches and temp files included, so nothing outside the
# checkout is written) and runs the harness with the given arguments.
#
#   bash bench/run.sh                    all five workloads, seed 1
#   bash bench/run.sh -repeat 2          two sets, compared against the bounds
#   bash bench/run.sh -trace 1           per-layer metrics + bench/out/trace-*.json
#   bash bench/run.sh --workload warm-hit --seed 7 --seconds 10 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local
go build -o "$out/polyufc-serve" ./cmd/polyufc-serve
go build -C bench -o "$out/polyufc-perf" .
exec "$out/polyufc-perf" "$@"
