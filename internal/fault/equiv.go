package fault

import (
	"fmt"
	"strings"
)

// This file is the cluster-level serial-vs-parallel equivalence harness:
// the same fuzz scenario — processes, migrations, crashes, partitions,
// gossip, plus confined background-load daemons — runs under the serial
// oracle and under the conservative parallel kernel at several worker
// counts, and every observable byte (trace stream, metrics snapshot, order
// digest, invariant reports) must be identical. The parallel kernel's
// correctness claim is exactly this: worker count is not an input.

// RunScenarioKernel runs sc under one kernel configuration (workers == 0
// selects the serial oracle) with bgHosts confined load daemons, and
// returns the full observation.
func RunScenarioKernel(sc Scenario, workers, bgHosts int) KernelObservation {
	var obs KernelObservation
	kc := kernelCfg{bgHosts: bgHosts, capture: &obs}
	if workers > 0 {
		kc.parallel = true
		kc.workers = workers
	}
	runScenario(sc, kc)
	return obs
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

// EquivCheck runs sc under the serial oracle and then under the parallel
// kernel at each of workerCounts, returning one message per divergence
// (empty slice = fully equivalent). bgHosts > 0 adds confined daemons so
// the comparison exercises worker-committed events and sharded metrics.
func EquivCheck(sc Scenario, bgHosts int, workerCounts []int) []string {
	want := RunScenarioKernel(sc, 0, bgHosts)
	var diffs []string
	for _, w := range workerCounts {
		got := RunScenarioKernel(sc, w, bgHosts)
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

// ShrinkEquiv greedily minimizes a scenario whose parallel runs diverge
// from serial, reusing the fuzzer's shrinking moves with "still diverges"
// as the predicate. Determinism makes the predicate exact.
func ShrinkEquiv(sc Scenario, bgHosts int, workerCounts []int) (Scenario, []string) {
	return shrink(sc, scenarioKnobs, func(cand Scenario) ([]string, bool) {
		diffs := EquivCheck(cand, bgHosts, workerCounts)
		return diffs, len(diffs) > 0
	})
}
