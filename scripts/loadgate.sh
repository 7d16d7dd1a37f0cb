#!/bin/sh
# loadgate.sh — the latency-budget gate (make loadtest).
#
# Boots archlined on an ephemeral port, drives a deterministic
# archloadgen pass at it, and enforces the committed budget
# (scripts/load_budget.json): p99 latency, minimum throughput, and zero
# unexpected 5xx/transport errors. A latency regression fails this
# script the same way a broken test fails the suite.
#
# Knobs (environment):
#   LOADTEST_DURATION  load length, default 5s
#   LOADTEST_BUDGET    budget file, default scripts/load_budget.json
#   LOADTEST_SEED      request-stream seed, default 42
set -eu

cd "$(dirname "$0")/.."

duration="${LOADTEST_DURATION:-5s}"
budget="${LOADTEST_BUDGET:-scripts/load_budget.json}"
seed="${LOADTEST_SEED:-42}"

tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT

echo "loadgate: building archlined and archloadgen"
go build -o "$tmpdir/archlined" ./cmd/archlined
go build -o "$tmpdir/archloadgen" ./cmd/archloadgen

# A data directory so the upload op would have durable storage if the
# mix enables it; defaults keep uploads and fit jobs off.
"$tmpdir/archlined" -addr 127.0.0.1:0 -data-dir "$tmpdir/data" \
    >"$tmpdir/daemon.log" 2>&1 &
daemon_pid=$!

base=""
for _ in $(seq 1 50); do
    base=$(sed -n 's/^archlined listening on \(.*\)$/\1/p' "$tmpdir/daemon.log")
    [ -n "$base" ] && break
    sleep 0.1
done
if [ -z "$base" ]; then
    echo "loadgate: archlined never announced its address" >&2
    cat "$tmpdir/daemon.log" >&2
    kill "$daemon_pid" 2>/dev/null || true
    exit 1
fi

echo "loadgate: driving load at $base for $duration (seed $seed, budget $budget)"
gate_status=0
"$tmpdir/archloadgen" -base "$base" -duration "$duration" -seed "$seed" \
    -budget "$budget" || gate_status=$?

# Drain the daemon cleanly regardless of the gate verdict; a daemon
# that cannot drain after load is its own failure.
kill -TERM "$daemon_pid"
( sleep 5; kill -9 "$daemon_pid" 2>/dev/null ) &
watchdog_pid=$!
if ! wait "$daemon_pid"; then
    echo "loadgate: archlined did not drain cleanly on SIGTERM after load" >&2
    cat "$tmpdir/daemon.log" >&2
    exit 1
fi
kill "$watchdog_pid" 2>/dev/null || true

if [ "$gate_status" -ne 0 ]; then
    echo "loadgate: FAILED (see budget violations above)" >&2
    exit "$gate_status"
fi
echo "loadgate: OK"
