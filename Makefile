# memstream build targets. Stdlib-only Go; no external tools required.

GO ?= go

.PHONY: all build test vet race bench bench-sim bench-record profile repro suite smoke fuzz cover clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# race runs the full test suite under the race detector — the parallel
# experiment runner must stay race-clean.
race:
	$(GO) test -race ./...

# bench regenerates every paper artifact as a testing.B benchmark.
bench:
	$(GO) test -bench=. -benchmem ./...

# bench-sim runs the hot-path microbenchmarks — the simulation kernel,
# the lock-free metrics collector, the timer wheel, the serve data
# plane, the rig's cycle walk, the popularity draw, and the disk's
# C-LOOK batch — the set CI compares old-vs-new with benchstat.
# BENCH_COUNT>1 gives benchstat samples to work with.
bench-sim:
	$(GO) test -run '^$$' -bench . -benchmem -count $(or $(BENCH_COUNT),1) ./internal/sim/ ./internal/metrics/ ./internal/wheel/ ./internal/serve/ ./internal/server/ ./internal/workload/ ./internal/disk/

# bench-record appends one BENCH_<n>.json point to the kernel performance
# trajectory (microbenchmarks + per-experiment events/sec).
bench-record:
	sh scripts/bench.sh

# profile writes cpu/heap pprof artifacts for the heaviest event-driven
# experiments (validate and dynamics dominate suite wall time; occupancy
# is the trace-bearing run), so perf work starts from a flame graph:
# go tool pprof -http=: profiles/cpu.pprof
profile:
	mkdir -p profiles
	$(GO) run ./cmd/memsbench -run 'validate|dynamics|occupancy' \
		-cpuprofile profiles/cpu.pprof -memprofile profiles/mem.pprof -out profiles
	@echo "profiles: profiles/cpu.pprof profiles/mem.pprof"

# profile-scale profiles one 4096-stream partition of the million-stream
# run (BenchmarkMillionStreamsPartition: 4096-request C-LOOK batches, SoA
# cycle walk, event kernel, one reused arena) — the unit that run repeats
# 245 times. Reading workflow in EXPERIMENTS.md ("Profiling the scaling
# hot path").
profile-scale:
	mkdir -p profiles
	$(GO) test -run '^$$' -bench MillionStreamsPartition -benchtime 300x \
		-cpuprofile profiles/scale-cpu.pprof -memprofile profiles/scale-mem.pprof \
		-o profiles/shard.test ./internal/shard/
	@echo "profiles: profiles/scale-cpu.pprof profiles/scale-mem.pprof (binary profiles/shard.test)"

# repro writes every table/figure to results/ as text artifacts.
repro:
	$(GO) run ./cmd/memsbench -out results

# suite runs every experiment on a parallel worker pool and writes the
# per-run metrics document next to the artifacts.
suite:
	$(GO) run ./cmd/memsbench -parallel 0 -out results -json results/metrics.json

# smoke runs the memserve↔memsload end-to-end check: load with stalled
# clients, zero leaked admission slots, graceful SIGTERM drain (exit 0).
smoke:
	sh scripts/smoke.sh

# fuzz gives each fuzz target a short budget; extend for deeper runs.
fuzz:
	$(GO) test -fuzz FuzzParseBytes -fuzztime 30s ./internal/units/
	$(GO) test -fuzz FuzzParseRate -fuzztime 30s ./internal/units/
	$(GO) test -fuzz FuzzReadText -fuzztime 30s ./internal/trace/
	$(GO) test -fuzz FuzzReadBinary -fuzztime 30s ./internal/trace/

# cover runs the suite with coverage profiles and enforces the
# internal/server statement-coverage floor (scripts/cover.sh).
cover:
	sh scripts/cover.sh

clean:
	rm -rf results profiles
