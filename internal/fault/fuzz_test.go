package fault

import "testing"

// fuzzSmokeN is the default scenario budget for the plain `go test` smoke
// run; set SPRITE_FUZZ=<n> for a longer sweep.
const fuzzSmokeN = 30

// TestClusterFuzz runs randomized fault scenarios and fails on the first
// invariant violation, after shrinking it to a minimal reproduction.
func TestClusterFuzz(t *testing.T) {
	swept := sweep(t, processes, 1000, fuzzSmokeN, processes.failing)
	if *replaySeed != 0 {
		return
	}
	kinds := make(map[Kind]int)
	for _, sc := range swept {
		for _, e := range sc.Events {
			kinds[e.Kind]++
		}
	}
	// The smoke run must actually exercise fault diversity, not just pass.
	if len(kinds) < 3 {
		t.Fatalf("smoke run covered only %d fault kinds (%v), want >= 3", len(kinds), kinds)
	}
}

// TestScenarioDeterminism: the same seed yields byte-identical runs — the
// property the replay workflow depends on.
func TestScenarioDeterminism(t *testing.T) {
	for _, seed := range []int64{7, 42, 1009} {
		sc := GenScenario(seed)
		a, b := runScenario(sc, kernelCfg{}), runScenario(sc, kernelCfg{})
		if a.Digest != b.Digest {
			t.Errorf("seed %d: digests differ:\n  %s\n  %s", seed, a.Digest, b.Digest)
		}
		if len(a.Violations) != len(b.Violations) {
			t.Errorf("seed %d: violation counts differ: %v vs %v", seed, a.Violations, b.Violations)
		}
	}
}

// TestShrinkGreedyMoves pins the loop every sweep's shrink runs, with a
// synthetic predicate in place of a run: "fails" while the crash event
// survives and at least 3 processes remain. Every other event and gossip
// must go, the population halves 8 → 4 and stops (2 would pass), and the
// evidence returned is the last failing probe's. A scenario that passes
// comes back untouched after one probe.
func TestShrinkGreedyMoves(t *testing.T) {
	crash := Event{Kind: KindCrash, Host: 2, At: 5}
	sc := Scenario{Seed: 9, Workstations: 4, Procs: 8, Gossip: true, Events: []Event{
		{Kind: KindPartition, Host: 1}, crash, {Kind: KindDrop, Prob: 0.5}, {Kind: KindMigFail, Point: "mig.vm"},
	}}
	probes, lastFailing := 0, 0
	fails := func(c Scenario) (int, bool) {
		probes++
		for _, e := range c.Events {
			if e == crash && c.Procs >= 3 {
				lastFailing = probes
				return probes, true
			}
		}
		return probes, false
	}
	min, evidence := shrink(sc, processes.knobs, fails)
	want := Scenario{Seed: 9, Workstations: 4, Procs: 4, Events: []Event{crash}}
	if min.String() != want.String() {
		t.Fatalf("shrunk to %v, want %v", min, want)
	}
	if evidence != lastFailing {
		t.Fatalf("evidence is probe %d's, want the last failing probe's (%d)", evidence, lastFailing)
	}

	probes = 0
	same, _ := shrink(sc, processes.knobs, func(c Scenario) (int, bool) { probes++; return 0, false })
	if same.String() != sc.String() || probes != 1 {
		t.Fatalf("passing scenario: got %v after %d probes, want it untouched after 1", same, probes)
	}
}
