#!/bin/sh
# ci.sh — continuous-integration entry point.
#
# check.sh's gates with test caching disabled (GOFLAGS=-count=1), so
# every run re-executes the suite, then CI's extras: short fuzz runs, a
# one-iteration bench pass gated on the committed allocation budget, and
# a short load pass gated on the committed latency budget. The daemon
# drills (SIGTERM drain, SIGKILL crash recovery, chaos degradation) are
# go tests, so the check step runs them. Exits nonzero on the first
# failing step.
set -eu

cd "$(dirname "$0")/.."

export GOFLAGS=-count=1

echo "ci: check"
./scripts/check.sh

echo "ci: fuzz"
# Short runs: the NDJSON chunk encoder against encoding/json, its float
# formatter against strconv, the segmented gzip writer against
# compress/gzip under an arbitrary size hint, the record encoder
# against compress/flate's reader, stats.Select against
# sort-then-index, the platform description's decode/encode round trip,
# arbitrary /v1 request bodies against the no-5xx contract, and
# arbitrary registry blobs through the recovery scan's verification. A
# failing input is written under the package's testdata/fuzz/ and then
# replays in every go test run.
go test -run '^$' -fuzz '^FuzzStreamChunk$' -fuzztime 10s ./internal/server/
go test -run '^$' -fuzz '^FuzzJSONFloat$' -fuzztime 10s ./internal/server/
go test -run '^$' -fuzz '^FuzzSegmentWriter$' -fuzztime 10s ./internal/server/
go test -run '^$' -fuzz '^FuzzRecordEncoder$' -fuzztime 10s ./internal/server/
go test -run '^$' -fuzz '^FuzzV1Body$' -fuzztime 10s ./internal/server/
go test -run '^$' -fuzz '^FuzzSelect$' -fuzztime 10s ./internal/stats/
go test -run '^$' -fuzz '^FuzzPlatformRoundTrip$' -fuzztime 10s ./internal/machine/
go test -run '^$' -fuzz '^FuzzVerifyBlob$' -fuzztime 10s ./internal/registry/

echo "ci: bench smoke"
# One iteration per benchmark: proves the trajectory harness runs end to
# end and benchjson parses its output, without CI-grade timings. The
# JSON lands in a temp dir so the committed BENCH_engine.json snapshot
# is only refreshed by a deliberate `make bench`.
bench_tmp=$(mktemp -d)
trap 'rm -rf "$bench_tmp"' EXIT
BENCHTIME=1x ./scripts/bench.sh "$bench_tmp/bench.json" >/dev/null
grep -q '"name": "BenchmarkSuiteRun/workers=1"' "$bench_tmp/bench.json" || {
    echo "ci: bench.json is missing the suite-run trajectory" >&2
    exit 1
}

echo "ci: bench gate"
# The smoke run's snapshot doubles as the regression gate input: the
# committed allocs/op ceilings (and, on >=4-CPU hosts, the parallel
# speedup floor) in scripts/bench_budget.json must hold even at one
# iteration per benchmark.
./scripts/benchgate.sh "$bench_tmp/bench.json"

echo "ci: load gate"
# Boots archlined, drives a deterministic archloadgen pass at it against
# scripts/load_budget.json, and requires a clean drain afterwards.
LOADTEST_DURATION=2s ./scripts/loadgate.sh

echo "ci: OK"
