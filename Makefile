# Convenience targets for the Sprite process-migration reproduction.

GO ?= go

.PHONY: all build vet lint test race cover bench bench-baseline bench-wallclock bench-e2e chaos shootout fleet scale experiments examples clean

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# spritelint (DESIGN.md §11): the project's own go/analysis-style suite —
# five analyzers (simtaint, confine, sharded, failpointreg, metricname)
# over one whole-tree call graph and its function summaries. Built into
# bin/ first; the whole-tree pattern also enables the dead-failpoint
# audit, and -deadallow the stale-allow audit.
lint:
	$(GO) build -o bin/spritelint ./cmd/spritelint
	./bin/spritelint -deadallow ./...

# Dump the whole-tree call graph the analyzers run over (DESIGN.md §11) —
# one line per resolved edge, then the spawn roots — for offline
# inspection of why a summary converged the way it did.
lint-graph:
	$(GO) build -o bin/spritelint ./cmd/spritelint
	./bin/spritelint -graph ./...

test:
	$(GO) test ./...

# The simulator parks goroutines and hands control across channels, so the
# race detector is the test that the one-activity-at-a-time discipline holds.
# The second leg reruns the cross-shard suites — chaos, churn, fuzz,
# cluster, the confined-hosts suites and the kernel's own stress tests —
# with the conservative parallel kernel forced (SPRITE_SIM_PARALLEL): worker
# handoffs, mailbox delivery, and sharded metrics cells must be clean under
# the race detector. A SPRITE_SIM_PARALLEL leg audits races, not
# equivalence: the variable overrides every cluster's kernel, serial
# baselines included, so under it a "serial vs N workers" test compares N
# workers with N workers. Equivalence is the first leg's job, where those
# tests run their real worker sweeps (also under -race).
race:
	$(GO) test -race ./...
	SPRITE_SIM_PARALLEL=4 $(GO) test -race ./internal/sim ./internal/core ./internal/fault ./internal/recovery ./internal/hostsel

# Minimum total coverage enforced; raise as the suite grows.
COVER_MIN ?= 60
cover:
	$(GO) test -coverprofile=coverage.out ./...
	@$(GO) tool cover -func=coverage.out | tail -1
	@total=$$($(GO) tool cover -func=coverage.out | tail -1 | awk '{print $$3}' | tr -d '%'); \
	ok=$$(awk -v t="$$total" -v m="$(COVER_MIN)" 'BEGIN{print (t>=m)?"yes":"no"}'); \
	if [ "$$ok" != "yes" ]; then \
		echo "coverage $$total% is below the $(COVER_MIN)% floor"; exit 1; \
	fi

# Benchmarks, in two parts:
#   1. Go micro-benchmarks across the tree, benchstat-compatible (pipe two
#      runs through `benchstat old.txt new.txt` to compare).
#   2. The migration macro-benchmark, emitting BENCH_migration.json and
#      failing on a >20% total-time regression against the checked-in
#      baseline (bench/BENCH_migration.json). Virtual time is
#      deterministic, so the gate is exact, not statistical.
BENCH_BASELINE ?= bench/BENCH_migration.json
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x ./... | tee bench.txt
	$(GO) run ./cmd/migbench -out BENCH_migration.json -baseline $(BENCH_BASELINE)

# Refresh the checked-in migration baseline (run after intentional
# performance changes, and commit the result).
bench-baseline:
	$(GO) run ./cmd/migbench -out $(BENCH_BASELINE)

# Wall-clock benchmarks of the simulator, RPC, VM, and metrics hot paths —
# the code whose real (not virtual) speed bounds how fast experiments run.
# Repeated runs (BENCH_COUNT) make the output benchstat-ready: save one
# run, make a change, run again, and `benchstat old.txt
# bench-wallclock.txt`. BenchmarkParallelKernel (sim) and
# BenchmarkRegistryParallel (metrics) are the parallel kernel's speedup and
# contention evidence; E17 then measures the same end to end and emits the
# BENCH_wallclock.json CI artifact (committed reference: bench/).
BENCH_COUNT ?= 6
bench-wallclock:
	$(GO) test -run '^$$' -bench=. -benchmem -count=$(BENCH_COUNT) \
		./internal/sim ./internal/rpc ./internal/vm ./internal/metrics | tee bench-wallclock.txt
	$(GO) run ./cmd/spritesim -experiment E17 -wallclock-snapshot BENCH_wallclock.json

# The end-to-end benchmark (benchmark/README.md): the five named workloads,
# 20 iterations each, both clocks, written to BENCH_e2e.json. `go run`
# exits non-zero if any unit of work failed its check. Compare two such
# files with `go run ./benchmark -compare old.json new.json`.
bench-e2e:
	$(GO) run ./benchmark -iters 20 -out BENCH_e2e.json

# Crash-storm chaos suite (DESIGN.md §10) under the race detector: every
# migration strategy survives a storm of host crashes and instant reboots
# with all jobs completing and invariants green. Emits RECOVERY_metrics.json
# — per-strategy recovery counters — plus the recovery demo's full metrics
# snapshot for the CI artifact.
chaos:
	SPRITE_CHAOS_SNAPSHOT=$(CURDIR)/RECOVERY_metrics.json SPRITE_SIM_PARALLEL=4 \
		$(GO) test -race -run 'TestCrashStorm|TestCrashAnyHostAtAnyFailpoint|TestGoldenCrashScenarios' -v ./internal/recovery
	$(GO) run ./cmd/spritesim -experiment E15 -recovery-snapshot RECOVERY_demo.json

# Host-selection churn suite (DESIGN.md §12) under the race detector —
# reboot storms, flapping, and partitions against all four selector
# architectures, audited by the claim ledger — plus the load-vector
# property tests and the misplacement-rate gate against
# bench/BENCH_hostsel.json. Then the full-scale E16 shoot-out, emitting
# HOSTSEL_shootout.json for the CI artifact.
shootout:
	SPRITE_SIM_PARALLEL=4 $(GO) test -race -run 'Churn|Gossip|LoadVector|Merge|Decay|VectorBound|EvictionHint|EpochAdvance|NewestHalf|RebootReleases' -v ./internal/hostsel
	SPRITE_SIM_PARALLEL=4 $(GO) test -race -run 'GossipMisplaceGate' ./internal/experiments
	$(GO) run ./cmd/spritesim -experiment E16 -hostsel-snapshot HOSTSEL_shootout.json

# Fleet-management chaos suite (DESIGN.md §15): the drain state machine's
# transition matrix, the 50-seed eviction-storm fuzz family (drain-safety
# audit + shrinking), and the serial-vs-parallel kernel equivalence check,
# all under the race detector with the parallel kernel enabled; then the
# fleet economy gate against bench/BENCH_fleet.json and the full E18
# sweep, emitting FLEET_storms.json for the CI artifact.
fleet:
	SPRITE_SIM_PARALLEL=4 $(GO) test -race -run 'TestDrainStateMachine|TestManagerDeterministic|TestFleetFuzz|TestFleetScenarioDeterminism|TestFleetKernelEquivalence' -v ./internal/fleet ./internal/fault
	SPRITE_SIM_PARALLEL=4 $(GO) test -race -run 'TestFleetEconomyGate' ./internal/experiments
	$(GO) run ./cmd/spritesim -experiment E18 -fleet-snapshot FLEET_storms.json

# The 10,000-host scale tier (nightly CI), two planes:
#   1. E16's combined-churn schedule — reboot storm, flapping hosts, two
#      partitions, competing requesters — at fleet scale on the parallel
#      kernel (churn needs crashes, so this plane cannot confine hosts).
#      Emits HOSTSEL_10k.json.
#   2. The confined-hosts migration plane (DESIGN.md §14) at 10k hosts,
#      run under the serial oracle AND the parallel kernel: the run fails
#      if their order digests diverge at fleet scale, and the
#      serial-vs-parallel wallclock comparison lands in SCALE_confined.json.
scale:
	$(GO) run ./cmd/spritesim -experiment E16 -hosts 10000 -parallel -hostsel-snapshot HOSTSEL_10k.json
	$(GO) run ./cmd/spritesim -confined-scale SCALE_confined.json

# Regenerate every reproduced table (see EXPERIMENTS.md).
experiments:
	$(GO) run ./cmd/spritesim -all

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/pmake
	$(GO) run ./examples/eviction
	$(GO) run ./examples/loadsharing
	$(GO) run ./examples/ipc
	$(GO) run ./examples/recovery

clean:
	$(GO) clean ./...
