package fault

import (
	"flag"
	"os"
	"strconv"
	"strings"
	"testing"
)

// Replay one scenario of any sweep in this package:
//
//	go test ./internal/fault -run TestFleetFuzz -seed=<seed>
//
// The seed and test named in a failure report reproduce the failing run bit
// for bit, including its shrunk form.
var replaySeed = flag.Int64("seed", 0, "replay one scenario by seed in each sweep -run selects")

// sweepN is the scenario budget of a seed sweep: smoke by default, and
// SPRITE_FUZZ=<n> lengthens every sweep in this package. A value that is
// not a positive integer fails the test instead of quietly running the
// smoke count.
func sweepN(t *testing.T, smoke int) int {
	t.Helper()
	s := os.Getenv("SPRITE_FUZZ")
	if s == "" {
		return smoke
	}
	n, err := strconv.Atoi(s)
	if err != nil || n <= 0 {
		t.Fatalf("SPRITE_FUZZ=%q: want a positive scenario count", s)
	}
	return n
}

// sweep probes the family's scenarios for seeds first, first+1, … (the
// sweepN budget), or the -seed scenario alone, and reports every scenario
// the probe finds failing — shrunk, with its replay line — and keeps going,
// so a long sweep is a census. It returns the scenarios it swept for the
// caller's coverage checks, or nil on a replay.
func sweep[S, E any](t *testing.T, f family[S, E], first int64, smoke int, probe func(S) (string, bool)) []S {
	t.Helper()
	var seeds []int64
	if *replaySeed != 0 {
		seeds = []int64{*replaySeed}
	} else {
		for i, n := 0, sweepN(t, smoke); i < n; i++ {
			seeds = append(seeds, first+int64(i))
		}
	}
	var swept []S
	for _, seed := range seeds {
		sc := f.gen(seed)
		if *replaySeed != 0 {
			t.Logf("replaying %v", sc)
		}
		if evidence, failed := probe(sc); failed {
			min, minEvidence := shrink(sc, f.knobs, probe)
			t.Errorf("seed %d failed (replay: go test ./internal/fault -run '^%s$' -seed=%d):\n%s\nshrunk to %v:\n%s",
				seed, t.Name(), seed, strings.TrimSuffix(evidence, "\n"), min, strings.TrimSuffix(minEvidence, "\n"))
		}
		swept = append(swept, sc)
	}
	if *replaySeed != 0 {
		return nil
	}
	return swept
}

// TestFuzzRegressions replays, on every run, the seeds long sweeps found
// failing and that now pass: a source crash with a stream move in flight,
// a migration straddling a reboot of its target, an abort recovery racing a
// crash of its own source, an orphan killed while its migration aborts on a
// target that died (5345), and a client cache left holding a second block
// for one key — a read miss that re-cached a key while its fs.read blocked
// (1003 under dropped messages, 1463 around a crash, 1723 around a reboot
// and partitions).
func TestFuzzRegressions(t *testing.T) {
	regress(t, processes, 1003, 1108, 1131, 1455, 1463, 1477, 1723, 1777)
	regress(t, fleets, 5053, 5081, 5101, 5103, 5111, 5152, 5183, 5272, 5280, 5345, 5533, 5744, 5754, 5788, 5790)
}

func regress[S, E any](t *testing.T, f family[S, E], seeds ...int64) {
	t.Helper()
	for _, seed := range seeds {
		if evidence, failed := f.failing(f.gen(seed)); failed {
			t.Errorf("seed %d regressed:\n%s", seed, evidence)
		}
	}
}

// equivWorkers are the parallel worker counts every scenario is checked at.
var equivWorkers = []int{2, 4, 8}

// diverges is the equivalence sweeps' probe: a scenario fails when any
// parallel run's observation differs from the serial oracle's.
func diverges[S, E any](f family[S, E]) func(S) (string, bool) {
	return func(sc S) (string, bool) {
		diffs := f.equivCheck(sc, equivWorkers)
		return strings.Join(diffs, "\n"), len(diffs) > 0
	}
}

// equivSmokeN is the process family's equivalence budget for the plain
// `go test` run; the sim-level property suite (internal/sim) covers 50+
// seeds of raw kernel behaviour, so the cluster-level budget here trades
// seed count for the much larger per-seed surface (full trace + metrics
// bytes).
const equivSmokeN = 10

// fleetEquivSmokeN covers fleet seeds 5000–5013, which include the three
// storms (5002, 5007, 5013) this check has always pinned.
const fleetEquivSmokeN = 14

// TestKernelEquivalence is the cluster-level half of the serial≡parallel
// contract: full fuzz scenarios — migrations, crashes, partitions, gossip,
// confined background load — must produce byte-identical traces, metrics
// snapshots, order digests, digests, run errors and invariant verdicts
// under the parallel kernel at 2, 4, and 8 workers. Failures shrink to a
// minimal scenario.
func TestKernelEquivalence(t *testing.T) {
	t.Setenv("SPRITE_SIM_PARALLEL", "")
	sweep(t, processes, 2000, equivSmokeN, diverges(processes))
}

// TestFleetKernelEquivalence: fleet storms under the conservative parallel
// kernel match the serial oracle on every observation field. Fleet
// clusters are non-confined (the controller reboots hosts), so the
// parallel kernel routes everything through the exclusive shard — the
// observations must still match exactly.
func TestFleetKernelEquivalence(t *testing.T) {
	t.Setenv("SPRITE_SIM_PARALLEL", "")
	sweep(t, fleets, 5000, fleetEquivSmokeN, diverges(fleets))
}

// TestKernelObservationComplete guards the comparison surface itself: a
// run of either family must actually produce trace bytes, metrics bytes, a
// digest and an order digest (and, for processes, background-load reports)
// on a clean baseline — otherwise equivCheck could go green by comparing
// empty strings.
func TestKernelObservationComplete(t *testing.T) {
	for _, c := range []struct {
		family string
		obs    KernelObservation
		bg     bool // the run rides background-load daemons along
	}{
		{"processes", processes.observe(processes.gen(2001), 0), true},
		{"fleets", fleets.observe(fleets.gen(5002), 0), false},
	} {
		obs := c.obs
		if obs.Trace == "" {
			t.Errorf("%s: no trace captured", c.family)
		}
		if obs.Metrics == "" {
			t.Errorf("%s: no metrics captured", c.family)
		}
		if obs.Digest == "" {
			t.Errorf("%s: no digest captured", c.family)
		}
		if obs.Order == 0 {
			t.Errorf("%s: order digest is zero", c.family)
		}
		if c.bg && obs.BgReports == 0 {
			t.Errorf("%s: no background-load reports reached the collector", c.family)
		}
		if obs.RunErr != "" || len(obs.Violations) > 0 {
			t.Errorf("%s: baseline scenario not clean: err=%q violations=%v", c.family, obs.RunErr, obs.Violations)
		}
	}
}
