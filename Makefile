# Convenience targets for the Sprite process-migration reproduction.

GO ?= go

.PHONY: all build vet lint test fuzz race allocs cover traffic bench artifacts scale experiments examples clean

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# spritelint (DESIGN.md §11): the project's own go/analysis-style suite —
# three analyzers (simtaint, confine, sharded) over one
# whole-tree call graph and its function summaries. Built into bin/ first;
# -deadallow adds the stale-allow audit.
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

# Coverage-guided search over process-fault scenarios (FuzzProcesses in
# internal/fault): input bytes make the scenario generator's choices. The
# checked-in corpus under internal/fault/testdata/fuzz replays in `make
# test`; a failing input the search finds is written there too.
FUZZTIME ?= 60s
fuzz:
	$(GO) test ./internal/fault -run '^$$' -fuzz FuzzProcesses -fuzztime $(FUZZTIME)

# The simulator parks activities on coroutines that the coordinator and any
# worker goroutine may resume, so the race detector is the test that the
# one-activity-at-a-time discipline holds.
# The second leg reruns every package that builds clusters with the
# conservative parallel kernel forced (SPRITE_SIM_PARALLEL): worker
# handoffs, mailbox delivery, and sharded metrics cells must be clean under
# the race detector. internal/pmake, the parallel make's program, is among
# them. Tests that compare kernels clear the variable for their own run, so
# their serial baselines stay serial in this leg too.
# The third leg reruns the window-barrier tests with GOMAXPROCS below and
# above the worker count: at -cpu 1 a waiting helper or coordinator only
# makes progress by yielding or parking. TestParallelEquivalenceProperty is
# left out; it takes half a minute per -cpu value under -race. The race
# build pins the windowed regime (internal/sim/regime_race.go); the regime
# tests, which pin the serial one or switch every few commits themselves,
# ride along. So do the exclusive-wake tests, whose confined completers
# wake shard-0 waiters from inside windows, and core's Boot-driver tests,
# which do the same through whole confined clusters. So do the
# background-load tests: bgload's daemons are the busiest confined
# activities, and each report emits a trace event from inside a window.
# The fourth leg does the same for the confined RPC plane: pooled handler
# activities, their spare shells and recycled call records are state shared
# by the activities of one shard, and must never be touched from another
# shard's worker. The typed-service tests ride along, so the typed call
# slots, which the services' pools hand across shards, run under the race
# detector too.
# The fifth leg does the same for the pseudo-devices, whose tests each run on
# an unconfined and a confined cluster, here with the parallel kernel
# forced, since pdev's clusters confine hosts without asking for it: a
# device's queue and pending replies live at its file server, touched only
# by that server's handlers, while clients and serving processes reach them
# from other shards' workers.
# The sixth leg does the same for the host selectors, whose tests that crash
# no host each run on an unconfined and a confined cluster, here with the
# parallel kernel forced: a gossip view, claim and hint queue live at their
# workstation, touched only by that host's handlers and daemon, while
# gossip rounds and claims reach them from every other shard.
# The seventh leg does the same for migration rollback, whose abort suites
# each run on an unconfined and a confined cluster, here with the parallel
# kernel forced so the confined subtests run on worker goroutines: an
# aborted migration's target drops the PCB, applies the fs records carried
# for it and moves the streams back in its k.migAbort handler, on its own
# shard, while the source waits for the reply.
race:
	$(GO) test -race ./...
	SPRITE_SIM_PARALLEL=4 $(GO) test -race ./internal/sim ./internal/core ./internal/fault ./internal/recovery ./internal/hostsel ./internal/fleet ./internal/pmake ./internal/pdev ./internal/experiments
	$(GO) test -race -count=1 -cpu 1,4 -run 'TestParallelRaceStress|TestParallelMatchesSerialAcrossWorkerCounts|TestRehomeEquivalence|TestGoexitInActivityEndsRun|TestRepeatedRunJoinsHelpers|TestEpochRule|TestSleepInPlaceOnlyInSerialRegime|TestExclusiveWake|TestFutureCompleteAcrossConfinedShards' ./internal/sim
	$(GO) test -race -count=1 -cpu 1,4 -run 'TestBootDriverOnConfinedCluster|TestConfinedClusterRunsInPhases' ./internal/core
	$(GO) test -race -count=1 -cpu 1,4 -run TestBgLoad ./internal/workload
	$(GO) test -race -count=1 -cpu 1,4 -run 'TestConfined|TestReplyBox|TestTyped' ./internal/rpc
	SPRITE_SIM_PARALLEL=4 $(GO) test -race -count=1 -cpu 1,4 ./internal/pdev
	SPRITE_SIM_PARALLEL=4 $(GO) test -race -count=1 -cpu 1,4 -run '^(TestRequestAndReleaseAllArchitectures|TestNoDoubleGrant|TestBusyHostsNotOffered|TestCentral(FairAllocationUnderContention|EvictsOnOwnerReturn|CrashAndRestart|RestartForgetsAssignments)|TestProbabilistic(GossipPropagates|StaleViewCausesConflict)|TestMulticastStatelessQuery|TestSharedFileDisablesCachingByDesign|TestAvailabilityUpdateCostOrdering|TestChurn(Flapping|Partition)AllSelectors)$$' ./internal/hostsel
	SPRITE_SIM_PARALLEL=4 $(GO) test -race -count=1 -cpu 1,4 -run '^(TestMigrationAbortRollsBack|TestMigrationToDownHostAbortsCleanly|TestMigrationVersionMismatchRejected|TestLostMigAbortLeavesNoGhost|TestBulkAbortMidBatchRollsBack)$$' ./internal/core ./internal/fault

# The allocation contract (BENCH_allocs.json, DESIGN.md §17): rerun every
# package whose tests check a row, one package at a time so no two rewrite
# the file at once, and rewrite the value of each exact row from what its
# check measures. Ceilings are edited by hand; review the diff.
ALLOC_PKGS = $(shell $(GO) list -f '{{range .TestImports}}{{if eq . "sprite/internal/allocs"}}{{$$.ImportPath}}{{end}}{{end}}' ./...)
allocs:
	$(GO) test -p 1 -count=1 $(ALLOC_PKGS) -update-allocs

# Minimum total coverage enforced; raise as the suite grows.
COVER_MIN ?= 75
cover:
	$(GO) test -coverprofile=coverage.out ./...
	@$(GO) tool cover -func=coverage.out | tail -1
	@total=$$($(GO) tool cover -func=coverage.out | tail -1 | awk '{print $$3}' | tr -d '%'); \
	ok=$$(awk -v t="$$total" -v m="$(COVER_MIN)" 'BEGIN{print (t>=m)?"yes":"no"}'); \
	if [ "$$ok" != "yes" ]; then \
		echo "coverage $$total% is below the $(COVER_MIN)% floor"; exit 1; \
	fi

# The traffic census: which functions no run of the program's own drivers
# ever executes. spritesim, the six examples and the benchmark harness are
# built with coverage of every package into a temporary directory; then
# `spritesim -all -quick`, each example and `benchmark -iters 2` run under
# one GOCOVERDIR, and the functions they left at 0.0% are printed, outside
# the lint analyzers (internal/analysis, cmd/spritelint), which no run
# reaches. A function listed here decides nothing in any table, example or
# benchmark run: test it, drive it, or delete it. A report only: it gates
# nothing and writes nothing in the tree. Seconds with a warm build cache.
traffic:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	for p in cmd/spritesim benchmark $(addprefix examples/,$(EXAMPLES)); do \
		$(GO) build -cover -coverpkg=sprite/... -o $$tmp/bin/$$(basename $$p) ./$$p || exit 1; \
	done; \
	mkdir $$tmp/cov; export GOCOVERDIR=$$tmp/cov; \
	$$tmp/bin/spritesim -all -quick >/dev/null || exit 1; \
	for e in $(EXAMPLES); do $$tmp/bin/$$e >/dev/null || exit 1; done; \
	$$tmp/bin/benchmark -iters 2 -out $$tmp/bench.json >/dev/null || exit 1; \
	$(GO) tool covdata func -i=$$tmp/cov | \
		awk '$$NF == "0.0%" && $$1 !~ /^sprite\/(internal\/analysis|cmd\/spritelint)\//'

# The end-to-end benchmark (benchmark/README.md): the five named workloads,
# 20 iterations each, both clocks, written to BENCH_e2e.json. `go run`
# exits non-zero if any unit of work failed its check. Compare two such
# files with `go run ./benchmark -compare old.json new.json`.
bench:
	$(GO) run ./benchmark -iters 20 -out BENCH_e2e.json

# The CI artifacts of the three fault planes, at full scale: E15's recovery
# demo metrics (DESIGN.md §10), E16's selector shoot-out (§12) and E18's
# fleet economy sweep (§15). Their suites and gates run in `make test` and
# `make race`; this target only produces the JSON.
artifacts:
	$(GO) run ./cmd/spritesim -experiment E15 -snapshot RECOVERY_demo.json
	$(GO) run ./cmd/spritesim -experiment E16 -snapshot HOSTSEL_shootout.json
	$(GO) run ./cmd/spritesim -experiment E18 -snapshot FLEET_storms.json

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
	$(GO) run ./cmd/spritesim -experiment E16 -hosts 10000 -parallel -snapshot HOSTSEL_10k.json
	$(GO) run ./cmd/spritesim -confined-scale -snapshot SCALE_confined.json

# Regenerate every reproduced table (see EXPERIMENTS.md).
experiments:
	$(GO) run ./cmd/spritesim -all

# Run the six examples and diff what each prints against its
# examples/<name>/output.golden: the examples are deterministic, and the ipc
# example's trace is where rendered trace events reach a reader. A run that
# fails adds an "exit status" line, so its diff fails too. After an intended
# change in what an example prints, regenerate its golden by hand:
#   go run ./examples/<name> > examples/<name>/output.golden
EXAMPLES = quickstart pmake eviction loadsharing ipc recovery
examples:
	@for e in $(EXAMPLES); do \
		echo "examples/$$e"; \
		{ $(GO) run ./examples/$$e || echo "exit status $$?"; } | diff -u examples/$$e/output.golden - || exit 1; \
	done

clean:
	$(GO) clean ./...
