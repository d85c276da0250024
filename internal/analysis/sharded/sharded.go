// Package sharded enforces the slot-sharded metrics discipline across
// call chains: code that runs on confined shards must mutate counters
// and timings through the per-worker-slot variants (Counter.IncSlot,
// Counter.AddSlot, Timing.ObserveSlot) and must not drive gauges at all
// — the unsharded mutators serialize on one cache line and, worse, make
// the metric's final value depend on cross-shard interleaving.
//
// sharded joins the per-function facts collected by
// internal/analysis/dataflow against the confined reachability closure,
// so a metrics helper called three frames below the spawn point is caught
// like one written in the spawn literal, with the witness chain in the
// message. Exclusive activities may use the unsharded mutators.
package sharded

import (
	"maps"
	"slices"

	"sprite/internal/analysis/dataflow"
	"sprite/internal/analysis/lint"
)

// Analyzer is the whole-tree sharded-metrics checker.
var Analyzer = &dataflow.TreeAnalyzer{
	Name: "sharded",
	Doc:  "unsharded metrics mutators (Inc/Add/Observe, gauges) reachable from confined spawns",
	Run:  run,
}

func run(t *dataflow.Tree) ([]lint.Diagnostic, error) {
	reach := t.ConfinedReachable()
	var diags []lint.Diagnostic
	for _, id := range slices.Sorted(maps.Keys(reach)) {
		s := t.Sums[id]
		if s == nil {
			continue
		}
		chain := reach[id].String()
		for _, f := range s.UnshardedMetrics {
			diags = append(diags, lint.Diagnostic{
				Pos:      f.Pos,
				Analyzer: "sharded",
				Message:  f.What + " — reachable from confined spawn: " + chain,
			})
		}
	}
	return diags, nil
}
