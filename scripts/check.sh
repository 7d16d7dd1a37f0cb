#!/bin/sh
# check.sh — the full pre-merge gate, run by `make check`.
# Checks that every tracked Go file is gofmt-formatted, builds
# everything, vets, runs the race-enabled test suite, vets and tests the
# benchmark module (_perfbench, which ./... skips), then runs the
# in-repo static-analysis suite (cmd/archlint) over every package — all
# eight analyzers, dimcheck included, plus stale-suppression detection;
# any unsuppressed finding fails the gate.
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
go -C _perfbench vet ./...
go -C _perfbench test ./...
go run ./cmd/archlint ./...
echo "check: OK"
