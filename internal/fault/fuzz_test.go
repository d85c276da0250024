package fault

import (
	"testing"
	"time"

	"sprite/internal/core"
)

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
		{Kind: KindPartition, Host: 1}, crash, {Kind: KindDrop, Prob: 0.5}, {Kind: KindMigFail, Point: core.FailMigVM},
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

// TestEveryWorkstationDownSkipsProcess: a process whose start finds every
// workstation crashed for good is skipped, and the run still settles
// clean.
func TestEveryWorkstationDownSkipsProcess(t *testing.T) {
	sc := Scenario{Seed: 1, Workstations: 3, Procs: 4}
	for w := 0; w < sc.Workstations; w++ {
		sc.Events = append(sc.Events, Event{Kind: KindCrash, Host: w, At: 50 * time.Millisecond})
	}
	if res := runScenario(sc, kernelCfg{}); res.Failed() {
		t.Fatal(res.Report())
	}
}

// fuzzDraws decodes fuzz input into a scenario's random choices: each draw
// reads the next two bytes, big-endian, with zeros past the end, so every
// input decodes to a scenario inside the generator's bounds.
type fuzzDraws []byte

func (d *fuzzDraws) next() int {
	v := 0
	for i := 0; i < 2; i++ {
		v <<= 8
		if len(*d) > 0 {
			v |= int((*d)[0])
			*d = (*d)[1:]
		}
	}
	return v
}

func (d *fuzzDraws) Intn(n int) int { return d.next() % n }

func (d *fuzzDraws) Float64() float64 { return float64(d.next()) / (1 << 16) }

// FuzzProcesses is the coverage-guided form of TestClusterFuzz: the input
// bytes make the scenario generator's choices and the seed drives the
// workload and the fault plane, and any invariant violation fails. The
// corpus under testdata/fuzz/FuzzProcesses replays on every `go test`;
// `make fuzz` searches for new inputs.
func FuzzProcesses(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, data []byte) {
		d := fuzzDraws(data)
		if res := runScenario(decodeScenario(seed, &d), kernelCfg{}); res.Failed() {
			t.Fatal(res.Report())
		}
	})
}
