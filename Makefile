GO ?= go
BENCH_OUT ?= BENCH_PR10.json

# The checked-in allocs/op budget for the protocol hot path. The PR 2
# baseline was 161 allocs per 20-op batch; the zero-allocation protocol
# rewrite (PR 3) landed at ~20 — this budget keeps headroom for pool and GC
# jitter while still failing anything that creeps back past the ≥60%-cut
# acceptance bar (64).
ALLOCS_BUDGET ?= 48

# The packed-arena budget (PR 10): sets copy into pooled scratch and packed
# segments instead of allocating value buffers, so the measured steady state
# is 8 allocs per 20-op batch — the CAMP policy-node floor on overwrites.
# Headroom to 12 covers pool jitter; byte mode keeps its own budget above.
ARENA_ALLOCS_BUDGET ?= 12

# pipefail so `go test | tee` recipes fail when go test fails, not when tee
# does — otherwise a panicking benchmark still "succeeds" and commits a
# partial BENCH file.
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -c

# Seed for `make chaos`; override to replay a failing schedule exactly:
#   make chaos CHAOS_SEED=99 CHAOS_ROUNDS=20
CHAOS_SEED ?= 1
CHAOS_ROUNDS ?= 8

.PHONY: verify fmt vet build test race race-all chaos fuzz fuzz-smoke bench alloc-gate metrics-gate layout-lint

verify: fmt vet layout-lint build test race

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Fail if a memory-layout branch grows back in kvserver: outside the layout
# implementations (memlayout.go), code reaches the byte/slab/buddy/arena
# layouts only through the memLayout interface and its capability bits.
layout-lint:
	@files="$$(ls internal/kvserver/*.go | grep -v -e '_test\.go$$' -e '/memlayout\.go$$')"; \
	if grep -nE 'st\.(slab|buddy|arena) (!=|==) nil|cfg\.Mode (==|!=)|arenaMode' $$files; then \
		echo "layout-lint: memory-layout branches outside internal/kvserver/memlayout.go"; exit 1; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detect the concurrent surfaces: the public cache and the TCP server.
race:
	$(GO) test -race ./internal/kvserver/ .

# Full race sweep, as CI runs it: the replication/persistence chaos tests
# get a dedicated run first (fail fast on the concurrency-heavy surface —
# failover, replica restarts, durable positions, snapshot fidelity), then
# the full sweep — NOT -short, which would silently drop -race coverage for
# every Short-skipped test, not just the replication ones.
race-all:
	$(GO) test -race -run 'TestRepl|TestFailover|TestDialWithReplica|TestSnapshotOrderFidelity|TestCrashRecovery' ./internal/kvserver/
	$(GO) test -race -run 'TestGolden|TestV1Reader|TestWritersAlways|TestJournalCarries' ./internal/persist/
	$(GO) test -race ./...

# Randomized fault-injection harness under the race detector: a
# primary+follower pair driven through seeded schedules of disk faults
# (EIO/ENOSPC/torn writes via the fault.FS seam) and replication-link
# faults (latency, partitions, truncation via the fault TCP proxy), plus
# the deterministic degraded-mode end-to-end pin. The seed is printed on
# failure; replay it with CHAOS_SEED.
chaos:
	CAMP_CHAOS=1 CAMP_CHAOS_SEED=$(CHAOS_SEED) CAMP_CHAOS_ROUNDS=$(CHAOS_ROUNDS) \
		$(GO) test -race -count=1 -run 'TestChaosPrimaryFollower|TestDegradedModeEndToEnd' -v ./internal/kvserver/

# Benchmark the server throughput (the sharding tentpole) plus the policy
# hot paths and figure pipelines, and record the run as JSON so the perf
# trajectory is diffable across PRs.
bench:
	@rm -f .bench.tmp.txt
	$(GO) test -run '^$$' -bench 'BenchmarkServerOps|BenchmarkEvictionManyTenants' -benchmem ./internal/kvserver/ | tee -a .bench.tmp.txt
	$(GO) test -run '^$$' -bench 'BenchmarkGetHit|BenchmarkSetEvict|BenchmarkMixedWorkload|BenchmarkShardedCache' -benchmem . | tee -a .bench.tmp.txt
	$(GO) test -run '^$$' -bench 'BenchmarkFig(4|5a)$$' -benchtime 1x -benchmem . | tee -a .bench.tmp.txt
	$(GO) run ./cmd/benchfmt -out $(BENCH_OUT) \
		-note "BenchmarkServerOps compares kvserver shard counts under parallel clients; the multi-core speedup only shows when cpus > 1 (see the cpus field) — on a single core the spread reflects per-shard overhead only." \
		.bench.tmp.txt
	@rm -f .bench.tmp.txt
	@echo "wrote $(BENCH_OUT)"

# Fail if the server's protocol hot path regresses past the checked-in
# allocs/op budget. Allocation counts are deterministic enough for CI where
# wall-clock timings are not.
alloc-gate:
	@rm -f .allocgate.tmp.txt
	$(GO) test -run '^$$' -bench 'BenchmarkServerOps(Arena)?/shards=1$$' -benchmem -benchtime 2s ./internal/kvserver/ | tee .allocgate.tmp.txt
	$(GO) run ./cmd/benchfmt -gate 'BenchmarkServerOps/shards=1' -max-allocs $(ALLOCS_BUDGET) .allocgate.tmp.txt > /dev/null
	$(GO) run ./cmd/benchfmt -gate 'BenchmarkServerOpsArena/shards=1' -max-allocs $(ARENA_ALLOCS_BUDGET) .allocgate.tmp.txt > /dev/null
	@rm -f .allocgate.tmp.txt

# Fail if a live /metrics scrape stops being valid Prometheus exposition
# text or loses a required family (latency histograms, shard gauges,
# replication-lag gauges), or if the pprof endpoints stop serving. Runs the
# same end-to-end scrape test CI does.
metrics-gate:
	$(GO) test -run 'TestMetricsGate|TestMetricsStressRace' -count=1 ./internal/kvserver/

# Short fuzz pass over the binary decoders (journal records, the v2
# snapshot reader, position records, the replication stream, the sync
# handshake, trace files).
fuzz:
	$(GO) test ./internal/alloc/ -fuzz FuzzArenaSetGet -fuzztime 30s
	$(GO) test ./internal/persist/ -fuzz FuzzDecodeRecord -fuzztime 30s
	$(GO) test ./internal/persist/ -fuzz FuzzDecodeSnapshotV2 -fuzztime 30s
	$(GO) test ./internal/persist/ -fuzz FuzzDecodePositionRecord -fuzztime 30s
	$(GO) test ./internal/persist/ -fuzz FuzzStreamFrames -fuzztime 30s
	$(GO) test ./internal/kvserver/ -fuzz FuzzParseSyncReply -fuzztime 15s
	$(GO) test ./internal/kvserver/ -fuzz FuzzParseSyncArgs -fuzztime 15s
	$(GO) test ./internal/kvserver/ -fuzz FuzzParseTenantCommand -fuzztime 15s
	$(GO) test ./internal/trace/ -fuzz FuzzBinaryReader -fuzztime 30s

# CI smoke fuzz: a few seconds per persistence-format decoder, per parser of
# the sync and tenant arguments clients send, and for the primary's sync
# reply parser, on every PR, so the corpus actually executes (seed-only runs
# never explore) without holding the pipeline hostage. The full half-minute-per-target pass stays
# in `make fuzz` for local soak runs.
fuzz-smoke:
	$(GO) test ./internal/alloc/ -fuzz FuzzArenaSetGet -fuzztime 10s
	$(GO) test ./internal/persist/ -fuzz FuzzDecodeSnapshotV2 -fuzztime 10s
	$(GO) test ./internal/persist/ -fuzz FuzzDecodePositionRecord -fuzztime 10s
	$(GO) test ./internal/persist/ -fuzz FuzzDecodeRecord -fuzztime 10s
	$(GO) test ./internal/kvserver/ -run '^$$' -fuzz '^FuzzParseSyncArgs$$' -fuzztime 10s
	$(GO) test ./internal/kvserver/ -run '^$$' -fuzz '^FuzzParseSyncReply$$' -fuzztime 10s
	$(GO) test ./internal/kvserver/ -run '^$$' -fuzz '^FuzzParseTenantCommand$$' -fuzztime 10s
