package fault

import "testing"

// fleetSmokeN covers the acceptance bar for the drain-safety family: 50
// seeds of eviction storms, flapping hosts, correlated rack failures, and
// manual cordons, all run against the audit. SPRITE_FUZZ=<n> lengthens the
// sweep.
const fleetSmokeN = 50

// TestFleetFuzz runs the eviction-storm scenario family and fails on the
// first drain-safety violation (resident lost, double placement, drained
// host not empty), lost job, hang, or core invariant breach — shrunk to a
// minimal reproduction.
func TestFleetFuzz(t *testing.T) {
	swept := sweep(t, fleets, 5000, fleetSmokeN, fleets.failing)
	if *replaySeed != 0 {
		return
	}
	kinds := make(map[FleetEventKind]int)
	gossipRuns := 0
	for _, sc := range swept {
		for _, e := range sc.Events {
			kinds[e.Kind]++
		}
		if sc.Gossip {
			gossipRuns++
		}
	}
	// The family must actually exercise storm diversity and both selector
	// configurations, not just pass.
	if len(kinds) < 3 {
		t.Fatalf("fleet sweep covered only %d event kinds (%v), want >= 3", len(kinds), kinds)
	}
	if len(swept) >= fleetSmokeN && gossipRuns == 0 {
		t.Fatal("fleet sweep never ran with gossip selection")
	}
}

// TestFleetScenarioDeterminism: the same seed yields identical runs — the
// property replay and shrinking depend on.
func TestFleetScenarioDeterminism(t *testing.T) {
	for _, seed := range []int64{11, 5003, 5021} {
		sc := GenFleetScenario(seed)
		a, b := runFleetScenario(sc, kernelCfg{}), runFleetScenario(sc, kernelCfg{})
		if a.Digest != b.Digest {
			t.Errorf("seed %d: digests differ:\n  %s\n  %s", seed, a.Digest, b.Digest)
		}
		if len(a.Violations) != len(b.Violations) {
			t.Errorf("seed %d: violation counts differ: %v vs %v", seed, a.Violations, b.Violations)
		}
	}
}
