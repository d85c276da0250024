package fault

import (
	"flag"
	"testing"
)

// Replay one equivalence scenario:
//
//	go test ./internal/fault -run TestKernelEquivalence -equivseed=<seed>
var equivSeed = flag.Int64("equivseed", 0, "replay one kernel-equivalence scenario by seed")

// equivWorkers are the parallel worker counts every scenario is checked at.
var equivWorkers = []int{2, 4, 8}

// equivSmokeN is the scenario budget for the plain `go test` run; the
// sim-level property suite (internal/sim) covers 50+ seeds of raw kernel
// behaviour, so the cluster-level budget here trades seed count for the
// much larger per-seed surface (full trace + metrics bytes). Set
// SPRITE_FUZZ=<n> for a longer sweep.
const equivSmokeN = 10

// TestKernelEquivalence is the cluster-level half of the serial≡parallel
// contract: full fuzz scenarios — migrations, crashes, partitions, gossip,
// confined background load — must produce byte-identical traces, metrics
// snapshots, order digests, and invariant verdicts under the parallel
// kernel at 2, 4, and 8 workers. Failures shrink to a minimal scenario.
func TestKernelEquivalence(t *testing.T) {
	t.Setenv("SPRITE_SIM_PARALLEL", "")
	const bgHosts = 6
	check := func(seed int64) {
		sc := GenScenario(seed)
		if diffs := EquivCheck(sc, bgHosts, equivWorkers); len(diffs) > 0 {
			min, minDiffs := ShrinkEquiv(sc, bgHosts, equivWorkers)
			t.Fatalf("seed %d diverged (replay: go test ./internal/fault -run TestKernelEquivalence -equivseed=%d):\n  %v\nshrunk to %v:\n  %v",
				seed, seed, diffs, min, minDiffs)
		}
	}
	if *equivSeed != 0 {
		check(*equivSeed)
		return
	}
	for i, n := 0, sweepN(t, equivSmokeN); i < n; i++ {
		check(int64(2000 + i))
	}
}

// TestKernelObservationComplete guards the comparison surface itself: a
// run must actually produce trace bytes, metrics bytes, a digest, and
// background-load reports — otherwise EquivCheck could go green by
// comparing empty strings.
func TestKernelObservationComplete(t *testing.T) {
	obs := RunScenarioKernel(GenScenario(2001), 0, 6)
	if obs.Trace == "" {
		t.Error("no trace captured")
	}
	if obs.Metrics == "" {
		t.Error("no metrics captured")
	}
	if obs.Digest == "" {
		t.Error("no digest captured")
	}
	if obs.Order == 0 {
		t.Error("order digest is zero")
	}
	if obs.BgReports == 0 {
		t.Error("no background-load reports reached the collector")
	}
	if obs.RunErr != "" || len(obs.Violations) > 0 {
		t.Errorf("baseline scenario not clean: err=%q violations=%v", obs.RunErr, obs.Violations)
	}
}
