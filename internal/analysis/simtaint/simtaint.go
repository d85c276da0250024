// Package simtaint enforces the determinism contract: nothing a golden,
// a digest or a seed replay can observe may depend on the wall clock, the
// process-global math/rand stream, or map iteration order.
//
// It reports three things, all classified by internal/analysis/dataflow:
//
//   - source sites — any reference to a wall-clock function (time.Now,
//     time.Sleep, ...) or a package-level math/rand function, in every
//     parsed file, tests and the simulation substrate included. Files on
//     the wall-clock allow list (wallclock.go, bench_test.go, ...) may
//     touch the host clock; seeded constructors (rand.New, rand.NewPCG,
//     ...) are the endorsed path;
//   - order-sensitive work written directly inside a range over a map —
//     append without a later sort, string +=, Write*/Emit, channel send,
//     fmt printing;
//   - tainted values reaching a determinism-sensitive sink (trace
//     emission, metrics values, output) through call chains: a helper
//     that returns time.Now().String() and a caller that hands the opaque
//     string to env.Emit are connected only by the whole-tree summaries.
//     These land at the call where the value enters the sink, the one
//     place a fix applies, and skip _test.go and the trusted substrate.
//
// In a wall-clock-allowed file taint is still computed, but wall-clock
// sink hits inside it are not reported.
package simtaint

import (
	"fmt"
	"go/token"
	"maps"
	"slices"

	"sprite/internal/analysis/dataflow"
	"sprite/internal/analysis/lint"
)

// Analyzer is the whole-tree determinism checker.
var Analyzer = &dataflow.TreeAnalyzer{
	Name: "simtaint",
	Doc:  "wall-clock, global-rand and map-order nondeterminism: banned source sites, order-sensitive work in map ranges, tainted values reaching trace/metrics/output sinks through call chains",
	Run:  run,
}

func run(t *dataflow.Tree) ([]lint.Diagnostic, error) {
	var diags []lint.Diagnostic
	report := func(pos token.Position, format string, args ...any) {
		diags = append(diags, lint.Diagnostic{Pos: pos, Analyzer: "simtaint", Message: fmt.Sprintf(format, args...)})
	}
	sources, rangeSinks := t.Sites()
	for _, f := range sources {
		report(f.Pos, "%s", f.What)
	}

	// One diagnostic per sink call: a call with two tainted operands, or
	// one that is both a tainted sink and order-sensitive work in a map
	// range, is one finding whose kinds are OR-ed together.
	type sinkKey struct {
		pos  token.Position
		sink string
	}
	merged := make(map[sinkKey]dataflow.Kind)
	var order []sinkKey
	add := func(h dataflow.SinkHit) {
		k := sinkKey{h.Pos, h.Sink}
		if _, seen := merged[k]; !seen {
			order = append(order, k)
		}
		merged[k] |= h.Kinds & dataflow.SourceMask
	}
	for _, h := range rangeSinks {
		add(h)
	}
	for _, id := range slices.Sorted(maps.Keys(t.Sums)) {
		for _, h := range t.Sums[id].SinkHits {
			add(h)
		}
		for _, h := range t.Sums[id].RangeEmitHits {
			report(h.Pos, "%s emits order-sensitively and is called once per map iteration; iterate a sorted copy of the keys",
				h.Callee.Short())
		}
	}
	for _, k := range order {
		kinds := merged[k]
		if dataflow.WallClockFile(k.pos.Filename) {
			kinds &^= dataflow.KWalltime
		}
		if kinds == 0 {
			continue
		}
		remedy := "derive it from env.Now()/env.LocalRand() or keep it out of the sink"
		if kinds == dataflow.KMapOrder {
			remedy = "sort the result or iterate a sorted copy of the keys"
		}
		report(k.pos, "%s-derived value reaches %s; goldens and seed replay diverge — %s", kinds.SourceString(), k.sink, remedy)
	}
	return diags, nil
}
