package dataflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"sprite/internal/analysis/callgraph"
	"sprite/internal/analysis/lint"
)

// extract computes each node's Summary from the converged taint
// environment: returns, sinks, mutations, contract facts. Facts are
// shallow — each node owns its body minus nested literals, which carry
// their own — so reachability joins attribute violations to the function
// that actually runs them.
func (st *unitState) extract() {
	for _, n := range st.u.nodes {
		st.sums[n.ID] = &Summary{}
	}
	for _, n := range st.u.nodes {
		st.extractNode(n)
	}
	for _, s := range st.sums {
		if len(s.MutatesGlobals) > 0 {
			s.MutatesGlobals = dedupeSorted(s.MutatesGlobals, 64)
		}
	}
}

func dedupeSorted(in []string, cap_ int) []string {
	sort.Strings(in)
	out := in[:0]
	for i, s := range in {
		if i == 0 || s != in[i-1] {
			out = append(out, s)
		}
	}
	if len(out) > cap_ {
		out = out[:cap_]
	}
	return out
}

// exclusiveOnlySim are the sim APIs whose runtime guards panic off the
// exclusive shard (sim.go exclusiveOnly); confined-reachable code calling
// one is a contract violation caught before it runs.
var exclusiveOnlySim = map[string]bool{
	"Rand": true, "Spawn": true, "SpawnOn": true, "After": true, "Stop": true,
}

// unshardedMetrics maps the contended metrics mutators to their
// slot-sharded replacements (DESIGN.md §13).
var unshardedMetrics = map[string]string{
	"Counter.Inc":    "Counter.IncSlot",
	"Counter.Add":    "Counter.AddSlot",
	"Timing.Observe": "Timing.ObserveSlot",
}

// gaugeSetters are the metrics calls that set gauges, which have no
// slot-sharded form.
var gaugeSetters = []string{"Gauge.Set", "Registry.SetGauges"}

// emitMethodNames are the order-sensitive output methods: stream
// writers, hashes, and the cluster's event/trace emitters. A call on an
// escaping receiver makes the function an emitter; a call written in a
// map-range body is a local sink (localRangeSinks).
var emitMethodNames = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Emit": true, "emit": true,
}

func (st *unitState) extractNode(n *callgraph.Node) {
	sum := st.sums[n.ID]
	body := n.Body()
	if body == nil {
		return
	}
	fset := st.pkg.Fset

	fact := func(list *[]Fact, pos token.Pos, what string) {
		*list = append(*list, Fact{Pos: fset.Position(pos), What: what})
	}

	callgraph.InspectShallow(body, func(nd ast.Node) bool {
		switch nd := nd.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			for _, r := range nd.Results {
				k := st.kindOf(r)
				sum.ReturnTaint |= k & SourceMask
				st.markerFold(k, func(o markerOwner) {
					if o.node == n.ID {
						sum.ReturnFromParams |= 1 << o.param
					}
				})
			}
		case *ast.AssignStmt:
			st.extractAssign(n, sum, nd, fact)
		case *ast.IncDecStmt:
			st.extractWrite(n, sum, nd.X, false, fact, nd.Pos())
		case *ast.SendStmt:
			fact(&sum.Concurrency, nd.Pos(), "channel send (cross-shard traffic must use sim.Mailbox)")
			sum.Emits = true
		case *ast.UnaryExpr:
			if nd.Op == token.ARROW {
				fact(&sum.Concurrency, nd.Pos(), "channel receive (cross-shard traffic must use sim.Mailbox)")
			}
		case *ast.GoStmt:
			fact(&sum.Concurrency, nd.Pos(), "raw go statement (activities must be spawned through sim)")
		case *ast.SelectStmt:
			fact(&sum.Concurrency, nd.Pos(), "select statement (raw channel scheduling outside sim)")
		case *ast.CallExpr:
			st.extractCall(n, sum, nd, fact)
		case *ast.RangeStmt:
			st.extractRange(sum, nd)
		}
		return true
	})
}

// markerFold visits the owners of every marker bit set in k.
func (st *unitState) markerFold(k Kind, f func(markerOwner)) {
	for bit := 0; bit < len(st.markers); bit++ {
		if k&paramMark(bit) != 0 {
			f(st.markers[bit])
		}
	}
}

// extractAssign handles writes: global mutation, param mutation, and
// order-sensitive emission (append/string-concat into escaping state).
func (st *unitState) extractAssign(n *callgraph.Node, sum *Summary, a *ast.AssignStmt, fact func(*[]Fact, token.Pos, string)) {
	if a.Tok == token.DEFINE {
		return
	}
	for i, lhs := range a.Lhs {
		compound := !isIdent(lhs)
		st.extractWrite(n, sum, lhs, compound, fact, a.Pos())
		// Emission: x = append(x, ...) or s += ... into escaping state.
		if i < len(a.Rhs) {
			rhs := a.Rhs[i]
			c, ok := ast.Unparen(rhs).(*ast.CallExpr)
			isAppend := ok && isBuiltin(st.info(), c, "append")
			isConcat := a.Tok == token.ADD_ASSIGN && isStringType(st.info(), lhs)
			if (isAppend || isConcat) && st.escaping(n, baseObj(st.info(), lhs)) {
				sum.Emits = true
			}
		}
	}
}

func isIdent(e ast.Expr) bool {
	_, ok := ast.Unparen(e).(*ast.Ident)
	return ok
}

func isStringType(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Kind() == types.String
}

// extractWrite classifies one lvalue write. A write rooted at a variable
// declared outside the node is a captured write whatever its shape;
// beyond that, plain-ident writes to locals and params rebind a copy and
// are ignored, and compound writes through a reference-like base escape
// to whoever shares the base.
func (st *unitState) extractWrite(n *callgraph.Node, sum *Summary, lhs ast.Expr, compound bool, fact func(*[]Fact, token.Pos, string), pos token.Pos) {
	obj := baseObj(st.info(), lhs)
	if obj == nil {
		return
	}
	if isGlobalVar(obj) {
		name := globalName(obj)
		fact(&sum.GlobalWrites, pos, "writes package-level "+name)
		sum.MutatesGlobals = append(sum.MutatesGlobals, name)
		return
	}
	if v, ok := obj.(*types.Var); ok && !v.IsField() {
		if start, end := n.Extent(); v.Pos() < start || v.Pos() > end {
			sum.CapturedWrites = append(sum.CapturedWrites,
				CapturedWrite{Pos: st.pkg.Fset.Position(pos), Name: v.Name(), Decl: v.Pos()})
		}
	}
	if !compound && isIdent(lhs) {
		return // rebinding a local name
	}
	if owner, idx, ok := st.paramOf(obj); ok && refLike(obj.Type()) {
		if s := st.sums[owner]; s != nil {
			s.MutatesParams |= 1 << idx
		}
	}
}

func isGlobalVar(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	return ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

func globalName(obj types.Object) string {
	return obj.Pkg().Path() + "." + obj.Name()
}

// paramOf finds which unit node owns obj as a parameter, and its index.
func (st *unitState) paramOf(obj types.Object) (callgraph.FuncID, int, bool) {
	for id, ps := range st.params {
		for i, p := range ps {
			if p == obj {
				return id, i, true
			}
		}
	}
	return "", 0, false
}

// refLike: writes through this type are visible to whoever shares it.
func refLike(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Slice, *types.Chan, *types.Interface:
		return true
	}
	return false
}

// escaping: mutating state rooted at obj is visible outside node n — the
// base is declared outside n, is package-level, or is a reference-like
// parameter of n.
func (st *unitState) escaping(n *callgraph.Node, obj types.Object) bool {
	if obj == nil {
		return true // derived from a call or unresolvable: be conservative
	}
	if isGlobalVar(obj) {
		return true
	}
	if _, _, isParam := st.paramOf(obj); isParam {
		return refLike(obj.Type())
	}
	start, end := n.Extent()
	return obj.Pos() < start || obj.Pos() > end
}

func (st *unitState) extractCall(n *callgraph.Node, sum *Summary, call *ast.CallExpr, fact func(*[]Fact, token.Pos, string)) {
	info := st.info()

	// close() on a channel is raw concurrency.
	if isBuiltin(info, call, "close") {
		fact(&sum.Concurrency, call.Pos(), "close on raw channel")
		return
	}

	fn := lint.FuncObjOf(info, call)
	if fn != nil {
		// Exclusive-only sim API (runtime exclusiveOnly guards).
		for name := range exclusiveOnlySim {
			if fn.Name() == name && lint.IsMethod(fn, simPkg, "Simulation", name) {
				fact(&sum.BannedCalls, call.Pos(),
					"sim.Simulation."+name+" is exclusive-only (panics on a confined shard)")
			}
		}
		if lint.IsMethod(fn, simPkg, "Mailbox", "Close") {
			fact(&sum.BannedCalls, call.Pos(), "sim.Mailbox.Close is exclusive-only")
		}
		if lint.IsMethod(fn, simPkg, "Env", "Rand") {
			fact(&sum.BannedCalls, call.Pos(),
				"sim.Env.Rand is banned on confined shards (use Env.LocalRand)")
		}
		// Unsharded metrics mutators.
		for m, repl := range unshardedMetrics {
			typ, meth, _ := strings.Cut(m, ".")
			if lint.IsMethod(fn, metricsPkg, typ, meth) {
				fact(&sum.UnshardedMetrics, call.Pos(),
					"metrics."+m+" contends across shards (use "+repl+" with sim.WorkerSlot)")
			}
		}
		for _, m := range gaugeSetters {
			if typ, meth, _ := strings.Cut(m, "."); lint.IsMethod(fn, metricsPkg, typ, meth) {
				fact(&sum.UnshardedMetrics, call.Pos(),
					"metrics."+m+" is deliberately unsharded; gauges must be driven from the exclusive shard")
			}
		}
		// Output emission: every printed operand is sink-reaching (the
		// writer argument of Fprint* is not printed).
		if isFmtPrint(fn) {
			sum.Emits = true
			printed := call.Args
			if strings.HasPrefix(fn.Name(), "Fprint") {
				printed = printed[1:]
			}
			for _, a := range printed {
				st.sinkOne(sum, call, a, "fmt."+fn.Name())
			}
		}
		// Sink methods (Write/Emit/...) on escaping receivers.
		if emitMethodNames[fn.Name()] {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && info.Selections[sel] != nil {
				if st.escaping(n, baseObj(info, sel.X)) {
					sum.Emits = true
				}
			}
		}
	}

	// Resolved callees: sinks, mutation, emission via summaries.
	args := effectiveArgs(info, call)
	for _, id := range st.t.Graph.ResolveFuncExpr(st.pkg, call.Fun) {
		s := st.t.SummaryFor(id)
		if s == nil {
			continue
		}
		if s.SinkParams != 0 {
			// A modeled callee IS the sink; a computed one passes the
			// value along to a sink somewhere below it.
			sink := "via " + id.Short()
			if _, isModel := models[id]; isModel {
				sink = id.Short()
			}
			for i := 0; i < len(args) && i < 64; i++ {
				if s.SinkParams&(1<<i) != 0 {
					st.sinkOne(sum, call, args[i], sink)
				}
			}
		}
		if s.MutatesParams != 0 {
			for i := 0; i < len(args) && i < 64; i++ {
				if s.MutatesParams&(1<<i) == 0 {
					continue
				}
				obj := baseObj(info, args[i])
				if obj == nil {
					continue
				}
				if isGlobalVar(obj) {
					name := globalName(obj)
					fact(&sum.GlobalWrites, call.Pos(), "passes package-level "+name+" to mutating "+id.Short())
					sum.MutatesGlobals = append(sum.MutatesGlobals, name)
				} else if owner, idx, ok := st.paramOf(obj); ok && refLike(obj.Type()) {
					if os := st.sums[owner]; os != nil {
						os.MutatesParams |= 1 << idx
					}
				}
			}
		}
		if len(s.MutatesGlobals) > 0 {
			sum.MutatesGlobals = append(sum.MutatesGlobals, s.MutatesGlobals...)
		}
		if s.Emits {
			sum.Emits = true
		}
	}
}

// sinkOne records a tainted value reaching a sink position of call, and
// propagates "my param reaches a sink" to the params the value derives
// from.
func (st *unitState) sinkOne(sum *Summary, call *ast.CallExpr, arg ast.Expr, sink string) {
	k := st.kindOf(arg)
	if srcs := k & SourceMask; srcs != 0 {
		sum.SinkHits = append(sum.SinkHits, SinkHit{
			Pos:   st.pkg.Fset.Position(call.Pos()),
			Kinds: srcs,
			Sink:  sink,
		})
	}
	st.markerFold(k, func(o markerOwner) {
		if s := st.sums[o.node]; s != nil {
			s.SinkParams |= 1 << o.param
		}
	})
}

// extractRange records interprocedural map-order hits: calls inside a
// map-range body to callees whose summaries emit order-sensitively, with
// no later sort to forgive them.
func (st *unitState) extractRange(sum *Summary, rng *ast.RangeStmt) {
	if !isMapRange(st.info(), rng) || st.sortAfter(rng.End()) {
		return
	}
	ast.Inspect(rng.Body, func(nd ast.Node) bool {
		call, ok := nd.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, id := range st.t.Graph.ResolveFuncExpr(st.pkg, call.Fun) {
			if _, isModel := models[id]; isModel {
				continue // a sink written in the range body is localRangeSinks' turf
			}
			s := st.t.SummaryFor(id)
			if s != nil && s.Emits {
				sum.RangeEmitHits = append(sum.RangeEmitHits, RangeEmitHit{
					Pos:    st.pkg.Fset.Position(call.Pos()),
					Callee: id,
				})
			}
		}
		return true
	})
}

func (st *unitState) sortAfter(pos token.Pos) bool {
	for _, p := range st.sortPos {
		if p > pos {
			return true
		}
	}
	return false
}
