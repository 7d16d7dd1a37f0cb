#!/usr/bin/env bash
# Builds archlined and the benchmark driver from the checkout it is run
# in, then runs one benchmark pass with the given arguments:
#
#   bash _perfbench/run.sh --workload dashboard --seed 1 --seconds 15 --trace 0
#   bash _perfbench/run.sh compare old.ndjson new.ndjson
#
# Run it from the checkout root. The binaries, the Go build cache and
# the runs' scratch space all stay under .bench_build/ there.
set -euo pipefail

root=$PWD
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/archlined" || ! -f "$root/_perfbench/go.mod" ]]; then
	echo "run.sh: run from the root of an archline checkout" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOFLAGS=
go build -o "$build/bin/archlined" ./cmd/archlined
go -C "$root/_perfbench" build -o "$build/bin/perfbench" .
exec "$build/bin/perfbench" -daemon "$build/bin/archlined" -workdir "$build" "$@"
