package fault

import (
	"fmt"
	"strings"
)

// This file is the one driver both scenario families run through. A family
// is a seed-to-scenario map, a runner, and the three scenario fields the
// shrinker edits; every sweep, equivalence check and shrink is written once
// over that shape, so a new generator (or a new family) plugs into all of
// them at one seam.

// family is one scenario family: gen derives a scenario from a seed (same
// seed, same scenario), run executes it under a kernel configuration and
// audits it, and knobs points at the fields the shrinker's moves edit — the
// fault events, whether gossip rides along, and the population.
type family[S, E any] struct {
	gen   func(seed int64) S
	run   func(S, kernelCfg) *Result
	knobs func(*S) (events *[]E, gossip *bool, population *int)
}

// processes is the process-workload family (fuzz.go): migrations, files,
// pipes and remote execs under crashes, drops, delays, partitions and
// migration aborts.
var processes = family[Scenario, Event]{
	gen: GenScenario,
	run: runScenario,
	knobs: func(sc *Scenario) (*[]Event, *bool, *int) {
		return &sc.Events, &sc.Gossip, &sc.Procs
	},
}

// fleets is the fleet-plane family (fuzzfleet.go): eviction storms,
// flapping hosts, rack failures and cordons against checkpointed jobs.
var fleets = family[FleetScenario, FleetEvent]{
	gen: GenFleetScenario,
	run: runFleetScenario,
	knobs: func(sc *FleetScenario) (*[]FleetEvent, *bool, *int) {
		return &sc.Events, &sc.Gossip, &sc.Jobs
	},
}

// kernelCfg selects the event kernel one scenario run executes under and
// what extra observables the run captures. The zero value is the serial
// oracle with ring-buffer tracing.
type kernelCfg struct {
	// workers > 0 runs the conservative parallel kernel with that many
	// workers; 0 is the serial oracle.
	workers int
	// capture, when set, receives the run's full observable surface. It
	// marks an equivalence run: the process family then also rides
	// equivBgHosts confined load daemons along.
	capture *KernelObservation
}

// KernelObservation is everything externally visible about one scenario
// run: if any field differs between the serial oracle and the parallel
// kernel, determinism is broken. Trace is the byte-exact event stream, not
// a digest, so divergences point at the first differing event.
type KernelObservation struct {
	RunErr     string
	Order      uint64 // sim.OrderDigest: FNV over the committed (at, seq) stream
	Digest     string // the family's coarse replay fingerprint
	Trace      string
	Metrics    string
	Violations []string
	BgReports  int
}

// failing runs sc on the serial oracle and reports whether any invariant
// broke, with the run's report as evidence — the fuzz sweeps' probe.
func (f family[S, E]) failing(sc S) (string, bool) {
	res := f.run(sc, kernelCfg{})
	return res.Report(), res.Failed()
}

// observe runs sc on workers (0 = the serial oracle) and returns the full
// observation.
func (f family[S, E]) observe(sc S, workers int) KernelObservation {
	var obs KernelObservation
	f.run(sc, kernelCfg{workers: workers, capture: &obs})
	return obs
}

// equivCheck runs sc under the serial oracle and then under the parallel
// kernel at each of workers, returning one message per divergence in any
// observation field (empty = fully equivalent). This is the parallel
// kernel's correctness claim: worker count is not an input.
func (f family[S, E]) equivCheck(sc S, workers []int) []string {
	want := f.observe(sc, 0)
	var diffs []string
	for _, w := range workers {
		got := f.observe(sc, w)
		tag := fmt.Sprintf("workers=%d", w)
		if got.Order != want.Order {
			diffs = append(diffs, fmt.Sprintf("%s: order digest %#x, serial %#x", tag, got.Order, want.Order))
		}
		if got.Trace != want.Trace {
			diffs = append(diffs, fmt.Sprintf("%s: trace diverged at %s", tag, diffLine(got.Trace, want.Trace)))
		}
		if got.Metrics != want.Metrics {
			diffs = append(diffs, fmt.Sprintf("%s: metrics diverged at %s", tag, diffLine(got.Metrics, want.Metrics)))
		}
		if got.Digest != want.Digest {
			diffs = append(diffs, fmt.Sprintf("%s: digest %q, serial %q", tag, got.Digest, want.Digest))
		}
		if got.RunErr != want.RunErr {
			diffs = append(diffs, fmt.Sprintf("%s: run error %q, serial %q", tag, got.RunErr, want.RunErr))
		}
		if got.BgReports != want.BgReports {
			diffs = append(diffs, fmt.Sprintf("%s: %d bg reports, serial %d", tag, got.BgReports, want.BgReports))
		}
		if gv, wv := strings.Join(got.Violations, "; "), strings.Join(want.Violations, "; "); gv != wv {
			diffs = append(diffs, fmt.Sprintf("%s: invariants %q, serial %q", tag, gv, wv))
		}
	}
	return diffs
}

// diffLine locates the first line where two multi-line strings diverge,
// for actionable failure reports.
func diffLine(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d: %q vs %q", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(al), len(bl))
}

// shrink greedily minimizes a failing scenario. probe runs a scenario and
// reports whether it still fails, with the evidence; a scenario that passes
// to begin with comes straight back. The moves, in order — drop one event,
// switch gossip off, halve the population — are each tried on a copy of
// cur and kept when the probe still fails; a kept move restarts from the
// first. knobs points at the three fields of a scenario that the moves
// edit. Because runs are deterministic, "still fails" is exact, not
// statistical.
func shrink[S, E, R any](cur S, knobs func(*S) (events *[]E, gossip *bool, population *int), probe func(S) (R, bool)) (S, R) {
	res, failing := probe(cur)
	keep := func(cand S) bool {
		r, fails := probe(cand)
		if fails {
			cur, res = cand, r
		}
		return fails
	}
	for changed := failing; changed; {
		changed = false
		events, _, _ := knobs(&cur)
		for i := 0; i < len(*events) && !changed; i++ {
			cand := cur
			rest, _, _ := knobs(&cand)
			*rest = append(append(make([]E, 0, len(*events)-1), (*events)[:i]...), (*events)[i+1:]...)
			changed = keep(cand)
		}
		cand := cur
		if _, gossip, _ := knobs(&cand); !changed && *gossip {
			*gossip = false
			changed = keep(cand)
		}
		cand = cur
		if _, _, population := knobs(&cand); !changed && *population > 1 {
			*population /= 2
			changed = keep(cand)
		}
	}
	return cur, res
}
