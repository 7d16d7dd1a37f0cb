GO ?= go

.PHONY: build test race vet lint check ci chaos fmt serve profile bench benchgate loadtest perfpairs

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

## lint runs the in-repo static-analysis suite (cmd/archlint):
## unit-safety, dimensional consistency of raw-float arithmetic
## (dimcheck), float comparisons, map-order determinism, dropped
## errors, goroutine hygiene, simulator seeding, span-lifecycle
## discipline, and stale-suppression detection. Exits nonzero on any
## unsuppressed finding.
lint:
	$(GO) run ./cmd/archlint ./...

## check is the full pre-merge gate (scripts/check.sh): gofmt, build,
## vet, race tests (the archlined SIGTERM-drain and SIGKILL-recovery
## drills included, plus ten-fold race storms on microbench, obs, cli,
## MultiStart and concurrent gzip streams), the _perfbench module's vet
## and tests, and lint with a per-analyzer summary.
check:
	./scripts/check.sh

## ci is check with caching disabled, then short fuzz runs, a
## one-iteration bench pass with the bench gate, and a 2 s load gate.
ci:
	./scripts/ci.sh

## chaos exercises the fault-injection stack: the fault, sanitization,
## robust-measurement, robust-fit, and server-resilience suites (race
## detector on, caching off), then one robust measure+fit run under the
## paper fault profile.
chaos:
	$(GO) test -race -count=1 ./internal/faults/ ./internal/powermon/ ./internal/sim/ \
		./internal/microbench/ ./internal/fit/ ./internal/server/
	$(GO) run ./cmd/archline -platform gtx-titan -faults paper -seed 42 measure

## bench runs the perf-trajectory benchmarks (parallel suite driver,
## batch vs sequential HTTP, streaming sweep, microbench hot paths) and
## snapshots them to BENCH_engine.json via scripts/benchjson.
bench:
	./scripts/bench.sh

## benchgate runs a fresh quick bench pass and enforces the committed
## perf budget: allocs/op ceilings plus a parallel-speedup floor that
## arms only on hosts with >= 4 CPUs (scripts/bench_budget.json).
benchgate:
	./scripts/benchgate.sh

## loadtest boots archlined on an ephemeral port, drives a deterministic
## archloadgen pass at it, and enforces the committed latency budget
## (scripts/load_budget.json). Knobs: LOADTEST_DURATION,
## LOADTEST_BUDGET, LOADTEST_SEED.
loadtest:
	./scripts/loadgate.sh

## perfpairs runs PAIRS alternating parent/change passes of the
## repository benchmark (_perfbench) on one workload, a distinct seed
## per pair, and prints per-pair and overall comparisons plus the
## ten-pair verdict for each end-to-end metric (scripts/perfpairs.sh).
## The change side is this working tree; PARENT is any commit.
PARENT ?= HEAD
WORKLOAD ?= dashboard
PAIRS ?= 10
RUN_SECONDS ?= 30
SEED ?= 1
perfpairs:
	./scripts/perfpairs.sh $(PARENT) $(WORKLOAD) $(PAIRS) $(RUN_SECONDS) $(SEED)

fmt:
	gofmt -w .

## serve runs archlined, the HTTP/JSON query daemon, on :8080.
serve:
	$(GO) run ./cmd/archlined

## profile boots archlined with -pprof, drives query load at it, and
## captures a CPU profile to cpu.pprof (override with OUT=/path).
profile:
	./scripts/profile.sh
