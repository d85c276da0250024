// Package confine statically enforces the confined-activity contract
// (DESIGN.md §13) that the parallel kernel's runtime guards — the
// sim.ErrConfinedContract panics — only catch when a seed happens to
// drive execution through the offending line.
//
// The call graph's spawn roots (Simulation.SpawnOn, Env.SpawnOn with a
// non-zero shard, Cluster.BootOn) mark which function bodies run
// confined; dataflow's reachability closure extends that over direct
// calls, func-value references, enclosed literals, and same-shard spawns
// (Env.Spawn). Any reachable function that calls an exclusive-only sim
// API, uses raw goroutine/channel concurrency, or writes package-level
// state is reported with the full witness chain back to the spawn point,
// so the diagnostic reads like the stack trace the runtime panic would
// have produced — before anything runs.
//
// A spawned body also may not write a variable it captured from outside
// itself: confined state must be body-local, and cross-shard data flows
// through sim.Mailbox sends or slot-sharded metrics. The spawned body's
// own extent is what counts as local — a nested literal may write its
// confined parent's variables, and a method value carries its receiver
// and parameters onto the shard with it (the per-host idiom: handing
// ep.serve to a shard hands ep's state along).
//
// Exclusive activities (Simulation.Spawn, shard 0) are unrestricted — the
// serial commit order is the arbiter there — and spawns made in _test.go
// files are exempt: tests capture state and assert on it after Run
// returns, which the end-of-run barrier makes safe.
package confine

import (
	"go/token"
	"maps"
	"slices"

	"sprite/internal/analysis/callgraph"
	"sprite/internal/analysis/dataflow"
	"sprite/internal/analysis/lint"
)

// Analyzer is the whole-tree confined-contract checker.
var Analyzer = &dataflow.TreeAnalyzer{
	Name: "confine",
	Doc:  "confined-reachable code calling exclusive-only sim APIs, raw concurrency, or writing captured or package-level state",
	Run:  run,
}

func run(t *dataflow.Tree) ([]lint.Diagnostic, error) {
	reach := t.ConfinedReachable()
	var diags []lint.Diagnostic
	report := func(pos token.Position, what string, id callgraph.FuncID) {
		diags = append(diags, lint.Diagnostic{
			Pos:      pos,
			Analyzer: "confine",
			Message:  what + " — reachable from confined spawn: " + reach[id].String(),
		})
	}

	for _, id := range slices.Sorted(maps.Keys(reach)) {
		s := t.Sums[id]
		if s == nil {
			continue
		}
		for _, facts := range [][]dataflow.Fact{s.BannedCalls, s.Concurrency, s.GlobalWrites} {
			for _, f := range facts {
				report(f.Pos, f.What, id)
			}
		}
	}

	// Captured writes are judged against the spawned body, not the node
	// that writes; a body spawned from several sites is reported once.
	seen := make(map[token.Position]bool)
	for _, r := range t.ConfinedRoots() {
		root := t.Graph.Nodes[r.Body]
		start, end := root.Extent()
		for _, n := range t.Enclosed(root) {
			s := t.Sums[n.ID]
			if s == nil {
				continue
			}
			for _, w := range s.CapturedWrites {
				if (w.Decl < start || w.Decl > end) && !seen[w.Pos] {
					seen[w.Pos] = true
					report(w.Pos, "writes captured "+w.Name+", declared outside the confined body (cross-shard data must flow through sim.Mailbox sends or slot-sharded metrics)", n.ID)
				}
			}
		}
	}
	return diags, nil
}
