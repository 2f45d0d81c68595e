# Pre-merge gate: everything here must pass before a change lands.
# `make check` is what CI would run — vet, build, the full test suite
# under the race detector, a seed pass of the fuzz targets, and the
# benchmark's smoke test.

GO ?= go

.PHONY: check vet build test race fuzz-seed fuzz bench-smoke

check: vet build race fuzz-seed bench-smoke

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Run the fuzz corpora as plain tests (fast; catches regressions on
# known-interesting inputs without an open-ended fuzz run).
fuzz-seed:
	$(GO) test ./internal/bgp ./internal/mrt ./internal/event ./internal/journal ./internal/relay ./internal/core/stemming ./internal/serve -run Fuzz -count=1

# The hottest concurrent paths, twice, under the race detector: session
# handling, the dial loop, the streaming window, the parallel
# analysis engine (pipeline worker pool + TAMP shard merge), the
# journal's crash harness (SIGKILL + torn-tail recovery), and rexd,
# whose intake drainer appends to the journal store while the main loop
# checkpoints it.
.PHONY: race-hot
race-hot:
	$(GO) test -race -count=2 ./internal/collector ./internal/bgp/fsm ./internal/core/pipeline ./internal/core/stemming ./internal/core/tamp ./internal/journal ./internal/relay ./internal/serve ./cmd/rexd

# The fleet soak: collector subprocesses SIGKILLed round-robin while
# relaying to one analysis node, final output required byte-identical
# to a single-process replay (see EXPERIMENTS.md "Fleet fan-in").
# TestFleetNodeSIGKILL additionally runs the analysis node as a durable
# subprocess and SIGKILLs it too, exercising receiver checkpoint
# recovery under the same differential.
.PHONY: soak
soak:
	$(GO) test -race -count=1 -run 'TestFleet|TestRelayFeedFromLiveCollector' ./cmd/rexfleet ./cmd/rexd

# The serving-tier soak: a live rexd swarmed by rexload pollers and SSE
# subscribers, SIGKILLed mid-swarm twice (once with the journal intact,
# once with it wiped so only the durable last snapshot remains), and
# drained with SIGTERM at the end. Proves single-flight rendering under
# load, zero 5xx across the chaos, explicit staleness while degraded,
# and bye-before-close SSE drain (see EXPERIMENTS.md "Serving tier").
.PHONY: serve-soak
serve-soak:
	$(GO) test -race -count=1 -run 'TestServeSoak' ./cmd/rexload

# The benchmark's smoke test: every workload at 1/50 size against a real
# rexd. bench/ is a module of its own, so `go test ./...` never reaches
# it; this target is what makes drift in the internal calls of
# bench/layers.go fail the gate.
bench-smoke:
	$(GO) test -C bench -count=1 .

# Open-ended fuzzing of the wire parser; override FUZZTIME for longer runs.
FUZZTIME ?= 30s
fuzz:
	$(GO) test ./internal/bgp -fuzz FuzzReadMessage -fuzztime $(FUZZTIME)

# Benchmark regression harness: runs the pipeline window benchmarks
# (sequential and parallel) and distills ns/op, events/sec and allocs/op
# into BENCH_pr6.json. Format documented in EXPERIMENTS.md.
BENCHTIME ?= 1x
.PHONY: bench
bench:
	$(GO) run ./cmd/benchjson -benchtime $(BENCHTIME) -out BENCH_pr6.json

# Benchmark regression smoke: one short fresh run of the parallel-window
# benchmark diffed against the committed baseline. Fails on an allocs/op
# increase beyond 25% (alloc counts are deterministic) or an events/sec
# collapse below half the baseline (loose on purpose — shared CI runners
# are noisy). BENCH_BASE overrides the baseline file.
BENCH_BASE ?= BENCH_pr6.json
.PHONY: bench-check
bench-check:
	$(GO) run ./cmd/benchjson -benchtime 1x -bench '^BenchmarkParallelWindow$$' -compare $(BENCH_BASE)
