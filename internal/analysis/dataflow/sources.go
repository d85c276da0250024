package dataflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"

	"sprite/internal/analysis/callgraph"
	"sprite/internal/analysis/lint"
	"sprite/internal/analysis/load"
)

// wallClock are the time-package functions that sample or wait on the
// host clock. time.Duration values and time.Time arithmetic stay fine —
// only these read or schedule against real time, and one stray call
// turns a byte-identical replay into a flaky one.
var wallClock = map[string]bool{
	"Now": true, "Sleep": true, "After": true, "AfterFunc": true, "Since": true,
	"Until": true, "Tick": true, "NewTimer": true, "NewTicker": true,
}

// wallClockFiles are the file base names allowed to touch the host clock:
// the wall-clock benchmark path measures the simulator's real speed, and
// wallclock.go is E17, the experiment whose subject is that speed (its
// determinism claim is carried by the order digest, not by its output).
var wallClockFiles = map[string]bool{
	"bench_test.go": true, "wallclock.go": true, "wallclock_test.go": true,
}

// seededRand are the math/rand and math/rand/v2 package-level functions
// that construct or feed an explicit source instead of consuming the
// process-global one; every other package-level function there makes a
// run depend on call interleaving across the whole binary.
var seededRand = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true,
}

// SourceOf classifies fn as a nondeterminism source: KWalltime,
// KGlobalRand, or 0. A method of *rand.Rand draws from a seeded stream and
// is never a source; in package time the match is by name alone, so
// Time.After counts — a time.Time worth comparing came from the clock.
func SourceOf(fn *types.Func) Kind {
	if fn == nil || fn.Pkg() == nil {
		return 0
	}
	switch fn.Pkg().Path() {
	case "time":
		if wallClock[fn.Name()] {
			return KWalltime
		}
	case "math/rand", "math/rand/v2":
		if fn.Type().(*types.Signature).Recv() == nil && !seededRand[fn.Name()] {
			return KGlobalRand
		}
	}
	return 0
}

// WallClockFile reports whether filename may read the host clock.
func WallClockFile(filename string) bool { return wallClockFiles[filepath.Base(filename)] }

// Sites returns the determinism violations visible at one source position
// with no summary needed, over every parsed file — _test.go and trusted
// packages included, since a time.Now() in the substrate or a test breaks
// replay as surely as one in a workload:
//
//   - sources: every reference (called or passed as a value) to a
//     wall-clock or global-rand function, wall-clock ones in a
//     WallClockFile excepted;
//   - rangeSinks: order-sensitive work written directly in the body of a
//     range over a map, as KMapOrder hits keyed like the taint sinks so a
//     call that is both (fmt.Println(k) in the range) reports once.
func (t *Tree) Sites() (sources []Fact, rangeSinks []SinkHit) {
	for _, pkg := range t.Pkgs {
		for _, f := range pkg.Files {
			wallOK := WallClockFile(pkg.Fset.Position(f.Pos()).Filename)
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					fn, _ := pkg.Info.Uses[n].(*types.Func)
					switch k := SourceOf(fn); {
					case k == KWalltime && !wallOK:
						sources = append(sources, Fact{pkg.Fset.Position(n.Pos()),
							"wall-clock time." + fn.Name() + " in simulated code: derive time from sim.Env (virtual clock) instead"})
					case k == KGlobalRand:
						sources = append(sources, Fact{pkg.Fset.Position(n.Pos()),
							"global " + fn.Pkg().Name() + "." + fn.Name() + ": draw from a seeded *rand.Rand (rand.New(rand.NewSource(seed))) so the run replays"})
					}
				case *ast.FuncDecl:
					if n.Body != nil {
						rangeSinks = append(rangeSinks, localRangeSinks(pkg, n.Body)...)
					}
				case *ast.FuncLit:
					rangeSinks = append(rangeSinks, localRangeSinks(pkg, n.Body)...)
				}
				return true
			})
		}
	}
	return sources, rangeSinks
}

// localRangeSinks checks one function body (nested literals are bodies of
// their own) for map ranges doing order-sensitive work in place: channel
// sends, string +=, fmt printing, Write*/Emit methods — no later sort can
// repair interleaved output — and appends, which the collect-then-sort
// idiom forgives: a sort-family call later in the same body, or a target
// slice declared inside the range body (per-iteration scratch).
// Commutative work (numeric folds, map inserts) passes.
func localRangeSinks(pkg *load.Package, body *ast.BlockStmt) []SinkHit {
	var hits []SinkHit
	hit := func(pos token.Pos, sink string) {
		hits = append(hits, SinkHit{Pos: pkg.Fset.Position(pos), Kinds: KMapOrder, Sink: sink})
	}
	sortedAfter := func(rng *ast.RangeStmt) bool {
		found := false
		callgraph.InspectShallow(body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && call.Pos() >= rng.End() && isSortCall(call) {
				found = true
			}
			return !found
		})
		return found
	}
	callgraph.InspectShallow(body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok || !isMapRange(pkg.Info, rng) {
			return true
		}
		callgraph.InspectShallow(rng.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SendStmt:
				hit(n.Pos(), "a channel send")
			case *ast.AssignStmt:
				if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isStringType(pkg.Info, n.Lhs[0]) {
					hit(n.Pos(), "a string +=")
				}
			case *ast.CallExpr:
				if isBuiltin(pkg.Info, n, "append") {
					if len(n.Args) > 0 && !declaredWithin(pkg.Info, n.Args[0], rng.Body) && !sortedAfter(rng) {
						hit(n.Pos(), "an append with no later sort")
					}
					return true
				}
				if fn := lint.FuncObjOf(pkg.Info, n); fn == nil {
					// builtin, conversion or func value: not a named sink
				} else if isFmtPrint(fn) {
					hit(n.Pos(), "fmt."+fn.Name())
				} else if emitMethodNames[fn.Name()] && fn.Type().(*types.Signature).Recv() != nil {
					hit(n.Pos(), callgraph.FuncIDOf(fn).Short())
				}
			}
			return true
		})
		return true
	})
	return hits
}

func isMapRange(info *types.Info, rng *ast.RangeStmt) bool {
	tv, ok := info.Types[rng.X]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// isSortCall is the collect-then-sort heuristic: any call whose name
// mentions "sort" — sort.Slice, slices.Sort, or a local sortProcs helper.
func isSortCall(call *ast.CallExpr) bool {
	return strings.Contains(strings.ToLower(calleeName(call)), "sort")
}

func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

// isFmtPrint matches fmt's Print* and Fprint* families (Sprint* builds a
// value, it emits nothing).
func isFmtPrint(fn *types.Func) bool {
	return fn.Pkg() != nil && fn.Pkg().Path() == "fmt" &&
		(strings.HasPrefix(fn.Name(), "Print") || strings.HasPrefix(fn.Name(), "Fprint"))
}

// declaredWithin reports whether e names a variable declared inside block.
func declaredWithin(info *types.Info, e ast.Expr, block *ast.BlockStmt) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	obj := info.Uses[id]
	return obj != nil && block.Pos() <= obj.Pos() && obj.Pos() <= block.End()
}
