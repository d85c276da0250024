package fault

import (
	"flag"
	"testing"
)

// Replay a single fleet scenario:
//
//	go test ./internal/fault -run TestFleetFuzz -fleet-seed=<seed>
var fleetSeed = flag.Int64("fleet-seed", 0, "replay one fleet fuzz scenario by seed")

// fleetSmokeN covers the acceptance bar for the drain-safety family: 50
// seeds of eviction storms, flapping hosts, correlated rack failures, and
// manual cordons, all run against the audit. SPRITE_FUZZ=<n> lengthens the
// sweep.
const fleetSmokeN = 50

func runFleetSeed(t *testing.T, seed int64) {
	t.Helper()
	sc := GenFleetScenario(seed)
	if res := RunFleetScenario(sc); res.Failed() {
		_, minRes := ShrinkFleet(sc)
		t.Fatalf("fleet scenario failed (replay: go test ./internal/fault -run TestFleetFuzz -fleet-seed=%d):\n%sshrunk:\n%s",
			seed, res.Report(), minRes.Report())
	}
}

// TestFleetFuzz runs the eviction-storm scenario family and fails on the
// first drain-safety violation (resident lost, double placement, drained
// host not empty), lost job, hang, or core invariant breach — shrunk to a
// minimal reproduction.
func TestFleetFuzz(t *testing.T) {
	if *fleetSeed != 0 {
		t.Logf("replaying %v", GenFleetScenario(*fleetSeed))
		runFleetSeed(t, *fleetSeed)
		return
	}
	n := sweepN(t, fleetSmokeN)
	kinds := make(map[FleetEventKind]int)
	gossipRuns := 0
	for i := 0; i < n; i++ {
		seed := int64(5000 + i)
		sc := GenFleetScenario(seed)
		for _, e := range sc.Events {
			kinds[e.Kind]++
		}
		if sc.Gossip {
			gossipRuns++
		}
		runFleetSeed(t, seed)
	}
	// The family must actually exercise storm diversity and both selector
	// configurations, not just pass.
	if len(kinds) < 3 {
		t.Fatalf("fleet sweep covered only %d event kinds (%v), want >= 3", len(kinds), kinds)
	}
	if n >= fleetSmokeN && gossipRuns == 0 {
		t.Fatal("fleet sweep never ran with gossip selection")
	}
}

// TestFleetScenarioDeterminism: the same seed yields identical runs — the
// property replay and shrinking depend on.
func TestFleetScenarioDeterminism(t *testing.T) {
	for _, seed := range []int64{11, 5003, 5021} {
		sc := GenFleetScenario(seed)
		a, b := RunFleetScenario(sc), RunFleetScenario(sc)
		if a.Digest != b.Digest {
			t.Errorf("seed %d: digests differ:\n  %s\n  %s", seed, a.Digest, b.Digest)
		}
		if len(a.Violations) != len(b.Violations) {
			t.Errorf("seed %d: violation counts differ: %v vs %v", seed, a.Violations, b.Violations)
		}
	}
}

// TestFleetKernelEquivalence: a fleet storm under the conservative
// parallel kernel commits the same event order, digest, and metrics as the
// serial oracle. Fleet clusters are non-confined (the controller reboots
// hosts), so the parallel kernel routes everything through the exclusive
// shard — the digests must still match exactly.
func TestFleetKernelEquivalence(t *testing.T) {
	t.Setenv("SPRITE_SIM_PARALLEL", "")
	for _, seed := range []int64{5002, 5007, 5013} {
		sc := GenFleetScenario(seed)
		sres, sobs := RunFleetScenarioKernel(sc, false, 0)
		pres, pobs := RunFleetScenarioKernel(sc, true, 4)
		if sres.Failed() || pres.Failed() {
			t.Fatalf("seed %d: scenario failed under serial=%v parallel=%v:\n%s%s",
				seed, sres.Failed(), pres.Failed(), sres.Report(), pres.Report())
		}
		if sobs.Order != pobs.Order {
			t.Errorf("seed %d: order digests differ: serial=%x parallel=%x", seed, sobs.Order, pobs.Order)
		}
		if sobs.Digest != pobs.Digest {
			t.Errorf("seed %d: fleet digests differ:\n  serial:   %s\n  parallel: %s", seed, sobs.Digest, pobs.Digest)
		}
		if sobs.Metrics != pobs.Metrics {
			t.Errorf("seed %d: metrics snapshots differ between kernels", seed)
		}
	}
}
