// Package dataflow computes bottom-up per-function summaries over the
// SCC-condensed call graph (internal/analysis/callgraph) and exposes them
// to the analyzers as a Tree. It is also the one owner of what counts as
// a nondeterminism source (sources.go) and of every per-function contract
// fact; the analyzers only join facts and word diagnostics.
//
// The engine is deliberately modest (DESIGN.md §11): flow- and
// path-insensitive, one taint environment per top-level declaration
// (nested literals share their parent's environment, so captured-variable
// taint propagates lexically), with a small bit-lattice per value:
//
//	bits 0..7   taint sources — wall clock, global rand, map order
//	bits 8..63  parameter markers: "this value derives from param i"
//
// A function's Summary says what callers need and nothing more: the taint
// its return values carry, which parameters flow to its returns, which
// parameters reach a determinism-sensitive sink (trace emission, metrics
// values), which parameters and package-level variables it mutates, and
// whether it performs order-sensitive emission (the interprocedural half
// of the maporder contract). Everything is monotone over a finite
// lattice, so the bottom-up pass — components in the condensation's
// reverse topological order, iterating inside recursive components —
// terminates; TestRecursiveConvergence pins that.
//
// Local contract facts (banned sim API calls, raw concurrency, global and
// captured-variable writes, unsharded metrics mutators, tainted sink hits)
// are recorded per node; confine and sharded join them against confined
// reachability, simtaint against file exemptions. Violations visible at
// one source position with no summary at all — a reference to a banned
// clock or rand function, order-sensitive work written directly inside a
// map range — come from Tree.Sites, which covers every parsed file.
package dataflow

import (
	"cmp"
	"go/token"
	"maps"
	"reflect"
	"slices"
	"strings"

	"sprite/internal/analysis/callgraph"
	"sprite/internal/analysis/lint"
	"sprite/internal/analysis/load"
)

// Kind is the taint lattice: source bits plus parameter markers.
type Kind uint64

const (
	KWalltime   Kind = 1 << 0 // derived from the wall clock (time.Now, ...)
	KGlobalRand Kind = 1 << 1 // derived from package-level math/rand state
	KMapOrder   Kind = 1 << 2 // derived from map iteration order

	// SourceMask selects the source bits.
	SourceMask Kind = 0xFF

	// markerShift is the first parameter-marker bit; markers above
	// maxMarkers params are dropped (conservative: no flow info).
	markerShift = 8
	maxMarkers  = 56
)

// SourceString names the source bits for diagnostics.
func (k Kind) SourceString() string {
	var parts []string
	if k&KWalltime != 0 {
		parts = append(parts, "wall-clock")
	}
	if k&KGlobalRand != 0 {
		parts = append(parts, "global-rand")
	}
	if k&KMapOrder != 0 {
		parts = append(parts, "map-order")
	}
	if len(parts) == 0 {
		return "clean"
	}
	return strings.Join(parts, "+")
}

func paramMark(i int) Kind {
	if i < 0 || i >= maxMarkers {
		return 0
	}
	return 1 << (markerShift + i)
}

// Fact is one position-stamped local observation.
type Fact struct {
	Pos  token.Position
	What string
}

// SinkHit is a tainted value reaching a determinism-sensitive sink.
type SinkHit struct {
	Pos   token.Position
	Kinds Kind   // source bits that arrived
	Sink  string // what it reached ("Env.Emit", "via q.helper", ...)
}

// RangeEmitHit is a call, inside a map-range body, to a function whose
// summary says it emits order-sensitively — the interprocedural half of
// the map-order contract (Tree.Sites reports the work written in the
// range body itself).
type RangeEmitHit struct {
	Pos    token.Position
	Callee callgraph.FuncID
}

// CapturedWrite is a write whose base variable is declared outside the
// writing node: a literal mutating state it closed over. Whether that is
// a violation depends on who runs the literal, so the fact keeps the
// declaration site for confine to compare against the spawned body.
type CapturedWrite struct {
	Pos  token.Position
	Name string
	Decl token.Pos
}

// Summary is what callers may rely on about one function.
type Summary struct {
	// ReturnTaint are source bits every caller receives.
	ReturnTaint Kind
	// ReturnFromParams: bit i set = param i's taint flows to the return.
	// Param numbering includes the receiver first, when there is one.
	ReturnFromParams uint64
	// SinkParams: bit i set = param i reaches a determinism-sensitive
	// sink inside this function or a callee.
	SinkParams uint64
	// MutatesParams: bit i set = param i's pointee is written here or in
	// a callee it is passed to.
	MutatesParams uint64
	// MutatesGlobals are package-level variables written, transitively
	// ("pkgpath.name", sorted, capped).
	MutatesGlobals []string
	// Emits: the function performs order-sensitive emission (output,
	// trace, append/send to caller-visible state), directly or via a
	// callee — calling it once per map-range iteration emits in map
	// order.
	Emits bool

	// Local facts (this node's own body, literals excluded — they carry
	// their own), joined against reachability by confine/sharded.
	BannedCalls      []Fact
	Concurrency      []Fact
	GlobalWrites     []Fact
	CapturedWrites   []CapturedWrite
	UnshardedMetrics []Fact

	// SinkHits and RangeEmitHits are the simtaint raw findings for this
	// node, before file exemptions and suppressions.
	SinkHits      []SinkHit
	RangeEmitHits []RangeEmitHit
}

// TreeAnalyzer is one static check over the whole loaded tree: the only
// analyzer type, driven by cmd/spritelint and linttest.RunTree.
type TreeAnalyzer struct {
	Name string
	Doc  string
	Run  func(*Tree) ([]lint.Diagnostic, error)
}

// Tree is the analyzed whole program.
type Tree struct {
	Pkgs  []*load.Package
	Graph *callgraph.Graph
	Sums  map[callgraph.FuncID]*Summary

	testFns map[callgraph.FuncID]bool
}

const (
	simPkg     = "sprite/internal/sim"
	tracePkg   = "sprite/internal/trace"
	metricsPkg = "sprite/internal/metrics"
)

// Trusted reports whether a package's interior is exempt from analysis:
// the simulation substrate and the analysis tooling itself. Their public
// APIs are modeled (models table) instead of analyzed — sim.Mailbox.Send
// mutating its receiver is the mechanism that makes cross-shard traffic
// legal, not a violation of it.
func Trusted(importPath string) bool {
	switch importPath {
	case simPkg, tracePkg, metricsPkg:
		return true
	}
	return strings.HasPrefix(importPath, "sprite/internal/analysis")
}

// models classifies the trusted and stdlib APIs the analyzers care about.
// Param numbering counts the receiver as param 0.
var models = map[callgraph.FuncID]*Summary{
	// Trace emission: the determinism goldens' raw material.
	simPkg + ".(Env).Emit":     {SinkParams: pbits(1), Emits: true},
	tracePkg + ".(Log).Append": {SinkParams: pbits(1), Emits: true},
	// Metrics values land in Snapshot.Text, which goldens compare.
	metricsPkg + ".(Counter).Add":        {SinkParams: pbits(1)},
	metricsPkg + ".(Counter).AddSlot":    {SinkParams: pbits(2)},
	metricsPkg + ".(Timing).Observe":     {SinkParams: pbits(1)},
	metricsPkg + ".(Timing).ObserveSlot": {SinkParams: pbits(2)},
	metricsPkg + ".(Gauge).Set":          {SinkParams: pbits(1)},
	metricsPkg + ".(Registry).SetGauges": {SinkParams: pbits(2)},
	// Deterministic clocks/randomness: returns are clean.
	simPkg + ".(Env).Now":       {},
	simPkg + ".(Env).Rand":      {},
	simPkg + ".(Env).LocalRand": {},
	// Stdlib map-order sources.
	"maps.Keys":               {ReturnTaint: KMapOrder},
	"maps.Values":             {ReturnTaint: KMapOrder},
	"reflect.(Value).MapKeys": {ReturnTaint: KMapOrder},
}

func pbits(is ...int) uint64 {
	var b uint64
	for _, i := range is {
		b |= 1 << i
	}
	return b
}

// Analyze builds the call graph and computes summaries bottom-up.
func Analyze(pkgs []*load.Package) *Tree {
	t := &Tree{
		Pkgs:    pkgs,
		Graph:   callgraph.Build(pkgs),
		Sums:    make(map[callgraph.FuncID]*Summary),
		testFns: make(map[callgraph.FuncID]bool),
	}
	for id, n := range t.Graph.Nodes {
		pos, _ := n.Extent()
		if strings.HasSuffix(n.Pkg.Fset.Position(pos).Filename, "_test.go") {
			t.testFns[id] = true
		}
	}

	// Units: one per top-level declaration (plus orphan literals from
	// package-level initializers), skipping trusted packages and test
	// files. Ordered callees-first by the condensation so one pass
	// settles non-recursive code.
	units := t.collectUnits()
	order := t.unitOrder(units)

	for round := 0; round < 32; round++ {
		changed := false
		for _, u := range order {
			for _, upd := range t.analyzeUnit(units[u]) {
				old := t.Sums[upd.id]
				if old == nil || !reflect.DeepEqual(old, upd.sum) {
					t.Sums[upd.id] = upd.sum
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return t
}

// SummaryFor resolves a callee's summary: models first (the trusted API
// surface), then computed summaries. Nil means unknown — callers
// must be conservative.
func (t *Tree) SummaryFor(id callgraph.FuncID) *Summary {
	if m, ok := models[id]; ok {
		return m
	}
	return t.Sums[id]
}

// unitRoot is one top-level declaration plus its enclosed literals.
type unitRoot struct {
	root  *callgraph.Node
	nodes []*callgraph.Node // root first, then literals, source order
}

func (t *Tree) collectUnits() map[callgraph.FuncID]*unitRoot {
	units := make(map[callgraph.FuncID]*unitRoot)
	for id, n := range t.Graph.Nodes {
		if Trusted(n.Pkg.ImportPath) || t.testFns[id] {
			continue
		}
		if n.Decl == nil && !t.orphanLit(id) {
			continue // literal owned by a declaration's unit
		}
		units[id] = &unitRoot{root: n, nodes: t.Enclosed(n)}
	}
	return units
}

// orphanLit: a literal whose parent ID is not a node (package-level var
// initializer literals, "pkg.init#file$1") roots its own unit.
func (t *Tree) orphanLit(id callgraph.FuncID) bool {
	i := strings.LastIndexByte(string(id), '$')
	if i < 0 {
		return true
	}
	_, ok := t.Graph.Nodes[callgraph.FuncID(string(id)[:i])]
	return !ok
}

// unitOrder sorts unit roots callees-first using the SCC condensation.
func (t *Tree) unitOrder(units map[callgraph.FuncID]*unitRoot) []callgraph.FuncID {
	sccs := t.Graph.Condense()
	rank := make(map[callgraph.FuncID]int)
	for i, s := range sccs {
		for _, f := range s.Funcs {
			rank[f] = i
		}
	}
	return slices.SortedFunc(maps.Keys(units), func(a, b callgraph.FuncID) int {
		return cmp.Or(cmp.Compare(rank[a], rank[b]), cmp.Compare(a, b))
	})
}
