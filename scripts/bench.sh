#!/bin/sh
# bench.sh — run the engine benchmark suite and snapshot it as JSON.
#
# Runs the perf-trajectory benchmarks (the parallel suite driver, the
# batch-vs-sequential HTTP comparison, the streaming sweep, the gzip
# level table, the microbench hot-path benches, and the refit path's
# robust suite, sanitization pass and platform fit), then converts the
# text output to a stable JSON document via scripts/benchjson.
#
# Usage:
#   scripts/bench.sh [out.json]        # default out: BENCH_engine.json
#
# Environment:
#   BENCHTIME   go test -benchtime value (default 2x; CI smoke uses 1x)
#   BENCHCOUNT  go test -count value (default 1)
set -eu

cd "$(dirname "$0")/.."

out=${1:-BENCH_engine.json}
benchtime=${BENCHTIME:-2x}
count=${BENCHCOUNT:-1}
pattern='^(BenchmarkSuiteRun|BenchmarkRunWorkers|BenchmarkRunRobust|BenchmarkResultFilters|BenchmarkSanitize|BenchmarkFitPlatform|BenchmarkBatchVsSequential|BenchmarkSweepStream|BenchmarkGzipLevels|BenchmarkMapDispatch)$'

tmp=$(mktemp)
trap 'rm -f "$tmp" "$tmp.prev"' EXIT

# Keep the outgoing snapshot so benchjson can embed allocs/op deltas:
# the new file then records its own trajectory against the old one.
prevflag=""
if [ -f "$out" ]; then
    cp "$out" "$tmp.prev"
    prevflag="-prev $tmp.prev"
fi

echo "bench: go test -bench (benchtime=$benchtime, count=$count)"
go test -run '^$' -bench "$pattern" -benchmem \
    -benchtime "$benchtime" -count "$count" \
    . ./internal/microbench/ ./internal/powermon/ ./internal/fit/ ./internal/server/ ./internal/pool/ | tee "$tmp"

# $prevflag expands to zero or two words by design.
# shellcheck disable=SC2086
go run ./scripts/benchjson $prevflag <"$tmp" >"$out"
echo "bench: wrote $out"
