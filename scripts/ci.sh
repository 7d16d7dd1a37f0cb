#!/bin/sh
# ci.sh — continuous-integration entry point.
#
# Same gate as scripts/check.sh but with test caching disabled
# (GOFLAGS=-count=1) so every run re-executes the suite, and with a
# per-analyzer summary of archlint findings (total and suppressed) on
# stderr. Exits nonzero if gofmt, the build, vet, the tests (the race
# storm and the _perfbench module's included), the short fuzz runs, or
# any unsuppressed archlint finding fails.
set -eu

cd "$(dirname "$0")/.."

export GOFLAGS=-count=1

echo "ci: gofmt"
# Every tracked Go file must already be gofmt-formatted.
unformatted=$(git ls-files -z '*.go' | xargs -0 gofmt -l)
if [ -n "$unformatted" ]; then
    echo "ci: gofmt would reformat:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "ci: go build"
go build ./...

echo "ci: go vet"
go vet ./...

echo "ci: go test -race"
go test -race ./...

echo "ci: race storm"
# The robust suite's kernel pool, its serialized Sleep and the held span
# export, repeated: a scheduling-dependent answer or trace, or an
# unsynchronized access, has ten chances to show.
go test -race -count=10 ./internal/microbench/ ./internal/obs/ ./internal/cli/

echo "ci: _perfbench vet + test"
# _perfbench is its own module, so ./... skips it; building it here
# catches an internal API change that breaks the repository benchmark.
go -C _perfbench vet ./...
go -C _perfbench test ./...

echo "ci: fuzz"
# Short differential runs: the NDJSON chunk encoder against
# encoding/json, and stats.Select against sort-then-index. A failing
# input is written under the package's testdata/fuzz/ and then replays
# in every go test run.
go test -run '^$' -fuzz '^FuzzStreamChunk$' -fuzztime 10s ./internal/server/
go test -run '^$' -fuzz '^FuzzSelect$' -fuzztime 10s ./internal/stats/

echo "ci: archlint"
go run ./cmd/archlint -summary ./...

echo "ci: bench smoke"
# One iteration per benchmark: proves the trajectory harness runs end to
# end and benchjson parses its output, without CI-grade timings. The
# JSON lands in a temp dir so the committed BENCH_engine.json snapshot
# is only refreshed by a deliberate `make bench`.
bench_tmp=$(mktemp -d)
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
rm -rf "$bench_tmp"

echo "ci: archlined smoke test"
# Boot the daemon on an ephemeral port, probe it over HTTP, then send
# SIGTERM and require a clean drain within 5 seconds.
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT
go build -o "$tmpdir/archlined" ./cmd/archlined
# Two job workers and a small queue so the smoke probe's job-lifecycle
# leg exercises the async fit engine with the same knobs ops would set;
# a data directory so the registry probe's uploads have durable storage.
"$tmpdir/archlined" -addr 127.0.0.1:0 -job-workers 2 -job-queue 4 -job-ttl 1m \
    -data-dir "$tmpdir/data" \
    >"$tmpdir/daemon.log" 2>&1 &
daemon_pid=$!

base=""
for _ in $(seq 1 50); do
    base=$(sed -n 's/^archlined listening on \(.*\)$/\1/p' "$tmpdir/daemon.log")
    [ -n "$base" ] && break
    sleep 0.1
done
if [ -z "$base" ]; then
    echo "ci: archlined never announced its address" >&2
    cat "$tmpdir/daemon.log" >&2
    kill "$daemon_pid" 2>/dev/null || true
    exit 1
fi

go run ./scripts/smoke -base "$base"

echo "ci: archloadgen load smoke"
# A short deterministic load pass against the same daemon, gated on the
# committed budget: nonzero throughput, no unexpected 5xx or transport
# errors. Runs after the smoke probe because smoke pins exact counter
# values that load traffic would shift.
go build -o "$tmpdir/archloadgen" ./cmd/archloadgen
"$tmpdir/archloadgen" -base "$base" -duration 2s -seed 42 -json \
    -budget scripts/load_budget.json >"$tmpdir/loadgen.json"
grep -q '"requests"' "$tmpdir/loadgen.json" || {
    echo "ci: archloadgen emitted no JSON report" >&2
    exit 1
}

kill -TERM "$daemon_pid"
# Clean drain within 5 s: a watchdog hard-kills on overrun, which makes
# the daemon exit nonzero and fails the gate below.
( sleep 5; kill -9 "$daemon_pid" 2>/dev/null ) &
watchdog_pid=$!
if ! wait "$daemon_pid"; then
    echo "ci: archlined did not drain cleanly on SIGTERM" >&2
    cat "$tmpdir/daemon.log" >&2
    exit 1
fi
kill "$watchdog_pid" 2>/dev/null || true

echo "ci: archlined chaos smoke test"
# Boot a second daemon with the chaos middleware explicitly enabled and
# assert graceful degradation: no 5xx without the JSON error envelope,
# Retry-After on shed/breaker responses, liveness intact throughout.
"$tmpdir/archlined" -addr 127.0.0.1:0 -chaos paper -chaos-seed 42 -max-inflight 64 \
    >"$tmpdir/chaos.log" 2>&1 &
chaos_pid=$!

chaos_base=""
for _ in $(seq 1 50); do
    chaos_base=$(sed -n 's/^archlined listening on \(.*\)$/\1/p' "$tmpdir/chaos.log")
    [ -n "$chaos_base" ] && break
    sleep 0.1
done
if [ -z "$chaos_base" ]; then
    echo "ci: chaos archlined never announced its address" >&2
    cat "$tmpdir/chaos.log" >&2
    kill "$chaos_pid" 2>/dev/null || true
    exit 1
fi
if ! grep -q "CHAOS MODE enabled" "$tmpdir/chaos.log"; then
    echo "ci: chaos archlined did not announce chaos mode" >&2
    cat "$tmpdir/chaos.log" >&2
    kill "$chaos_pid" 2>/dev/null || true
    exit 1
fi

go run ./scripts/smoke -base "$chaos_base" -chaos

kill -TERM "$chaos_pid"
( sleep 5; kill -9 "$chaos_pid" 2>/dev/null ) &
chaos_watchdog_pid=$!
if ! wait "$chaos_pid"; then
    echo "ci: chaos archlined did not drain cleanly on SIGTERM" >&2
    cat "$tmpdir/chaos.log" >&2
    exit 1
fi
kill "$chaos_watchdog_pid" 2>/dev/null || true

echo "ci: archlined crash-recovery drill"
# Commit one registry upload, SIGKILL the daemon with no warning, plant
# a corrupt blob in the store, restart over the same data directory, and
# require the acknowledged upload back (same ETag) with the corruption
# quarantined — the registry's durability contract, end to end.
crash_data="$tmpdir/crashdata"
"$tmpdir/archlined" -addr 127.0.0.1:0 -data-dir "$crash_data" \
    >"$tmpdir/crash.log" 2>&1 &
crash_pid=$!

crash_base=""
for _ in $(seq 1 50); do
    crash_base=$(sed -n 's/^archlined listening on \(.*\)$/\1/p' "$tmpdir/crash.log")
    [ -n "$crash_base" ] && break
    sleep 0.1
done
if [ -z "$crash_base" ]; then
    echo "ci: crash-drill archlined never announced its address" >&2
    cat "$tmpdir/crash.log" >&2
    kill "$crash_pid" 2>/dev/null || true
    exit 1
fi

commit_line=$(go run ./scripts/smoke -base "$crash_base" -crash-commit)
etag=$(printf '%s\n' "$commit_line" | sed -n 's/^smoke: committed //p')
if [ -z "$etag" ]; then
    echo "ci: crash-commit probe printed no sentinel: $commit_line" >&2
    kill -9 "$crash_pid" 2>/dev/null || true
    exit 1
fi

# No SIGTERM, no drain: the acknowledged write must already be on disk.
kill -9 "$crash_pid"
wait "$crash_pid" 2>/dev/null || true

# Bit-rot: a blob whose content no longer matches its content address.
printf 'not a registry envelope' \
    >"$crash_data/blobs/$(printf 'c%.0s' $(seq 1 64)).json"

"$tmpdir/archlined" -addr 127.0.0.1:0 -data-dir "$crash_data" \
    >"$tmpdir/recover.log" 2>&1 &
recover_pid=$!

recover_base=""
for _ in $(seq 1 50); do
    recover_base=$(sed -n 's/^archlined listening on \(.*\)$/\1/p' "$tmpdir/recover.log")
    [ -n "$recover_base" ] && break
    sleep 0.1
done
if [ -z "$recover_base" ]; then
    echo "ci: recovered archlined never announced its address" >&2
    cat "$tmpdir/recover.log" >&2
    kill "$recover_pid" 2>/dev/null || true
    exit 1
fi
if ! grep -q 'recovered 1 uploaded platform' "$tmpdir/recover.log"; then
    echo "ci: restart did not report the recovered upload" >&2
    cat "$tmpdir/recover.log" >&2
    kill "$recover_pid" 2>/dev/null || true
    exit 1
fi

go run ./scripts/smoke -base "$recover_base" -verify-recover \
    -etag "$etag" -want-quarantined 1

kill -TERM "$recover_pid"
( sleep 5; kill -9 "$recover_pid" 2>/dev/null ) &
recover_watchdog_pid=$!
if ! wait "$recover_pid"; then
    echo "ci: recovered archlined did not drain cleanly on SIGTERM" >&2
    cat "$tmpdir/recover.log" >&2
    exit 1
fi
kill "$recover_watchdog_pid" 2>/dev/null || true

echo "ci: OK"
