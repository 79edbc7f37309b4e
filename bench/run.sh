#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument
# to the benchmark binary. Run it from the repository root: compare reads
# BENCHMARK.json from there.
#
#   bash bench/run.sh --workload qoe-sweep --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and the benchmark's temporary stores
# all stay under .bench_build/ in the repository root.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/bench" && go build -o "$out/bench" .)
exec "$out/bench" "$@"
