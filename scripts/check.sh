#!/bin/sh
# check.sh — the full pre-merge gate, run by `make check` and ci.sh.
# Checks that every tracked Go file is gofmt-formatted, builds
# everything, vets, runs the race-enabled test suite (the daemon drills
# included) and ten-fold race storms over the concurrent robust suite,
# MultiStart and concurrent gzip streams, vets and tests the benchmark
# module (_perfbench, which ./... skips), then runs the in-repo
# static-analysis suite (cmd/archlint) over every package — all eight
# analyzers plus stale-suppression detection, with a per-analyzer
# summary; any unsuppressed finding fails the gate.
set -eu

cd "$(dirname "$0")/.."

unformatted=$(git ls-files -z '*.go' | xargs -0 gofmt -l)
if [ -n "$unformatted" ]; then
    echo "check: gofmt would reformat:" >&2
    echo "$unformatted" >&2
    exit 1
fi
go build ./...
go vet ./...
go test -race ./...
# Race storm over the robust suite's kernel pool, its serialized Sleep
# and the held span export, then over MultiStart's pooled starts (the
# whole fit package takes ~14 s under -race, too long to run ten times),
# then over concurrent gzip streams sharing the deflater slots, segment
# buffers and pooled record encoders.
go test -race -count=10 ./internal/microbench/ ./internal/obs/ ./internal/cli/
go test -race -count=10 -run 'MultiStart' ./internal/fit/
go test -race -count=10 -run 'ConcurrentGzipStreams' ./internal/server/
go -C _perfbench vet ./...
go -C _perfbench test ./...
go run ./cmd/archlint -summary ./...
echo "check: OK"
