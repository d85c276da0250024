package dataflow

import (
	"go/ast"
	"go/token"
	"go/types"

	"sprite/internal/analysis/callgraph"
	"sprite/internal/analysis/lint"
	"sprite/internal/analysis/load"
)

// update is one node's freshly computed summary.
type update struct {
	id  callgraph.FuncID
	sum *Summary
}

// markerOwner maps a parameter-marker bit back to the node and parameter
// index that owns it.
type markerOwner struct {
	node  callgraph.FuncID
	param int
}

// unitState is the shared flow-insensitive environment for one top-level
// declaration and all literals lexically inside it. Sharing the taint map
// across the unit is what makes captured-variable taint work: a literal
// reading a tainted variable of its parent sees the parent's bits.
type unitState struct {
	t   *Tree
	u   *unitRoot
	pkg *load.Package

	taint   map[types.Object]Kind
	sorted  map[types.Object]bool
	params  map[callgraph.FuncID][]types.Object
	markers []markerOwner // index = marker bit - markerShift
	markOf  map[types.Object]int

	sortPos []token.Pos // positions of sort-family calls, unit-wide

	sums map[callgraph.FuncID]*Summary
}

func (t *Tree) analyzeUnit(u *unitRoot) []update {
	st := &unitState{
		t:      t,
		u:      u,
		pkg:    u.root.Pkg,
		taint:  make(map[types.Object]Kind),
		sorted: make(map[types.Object]bool),
		params: make(map[callgraph.FuncID][]types.Object),
		markOf: make(map[types.Object]int),
		sums:   make(map[callgraph.FuncID]*Summary),
	}
	st.collectParams()
	st.collectSorted()
	st.propagate()
	st.extract()

	out := make([]update, 0, len(u.nodes))
	for _, n := range u.nodes {
		out = append(out, update{id: n.ID, sum: st.sums[n.ID]})
	}
	return out
}

func (st *unitState) info() *types.Info { return st.pkg.Info }

// collectParams assigns each node's parameters (receiver first) their
// marker bits, unit-wide.
func (st *unitState) collectParams() {
	for _, n := range st.u.nodes {
		var objs []types.Object
		add := func(fl *ast.FieldList) {
			if fl == nil {
				return
			}
			for _, f := range fl.List {
				for _, name := range f.Names {
					if obj := st.info().Defs[name]; obj != nil {
						objs = append(objs, obj)
					}
				}
			}
		}
		if n.Decl != nil {
			add(n.Decl.Recv)
		}
		add(n.FuncType().Params)
		st.params[n.ID] = objs
		for i, obj := range objs {
			bit := len(st.markers)
			if bit >= maxMarkers {
				continue // conservative: no flow info for this param
			}
			st.markers = append(st.markers, markerOwner{node: n.ID, param: i})
			st.markOf[obj] = bit
			st.taint[obj] |= paramMark(bit)
		}
	}
}

// collectSorted records objects passed to sort-family calls anywhere in
// the unit, plus the call positions (the "later sort forgives" heuristic
// of isSortCall, applied unit-wide). A sorted object's map-order bit is
// masked on every read.
func (st *unitState) collectSorted() {
	body := st.u.root.Body()
	if body == nil {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if !isSortCall(call) {
			return true
		}
		st.sortPos = append(st.sortPos, call.Pos())
		for _, a := range call.Args {
			if obj := baseObj(st.info(), a); obj != nil {
				st.sorted[obj] = true
			}
		}
		return true
	})
}

func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		// Keep the qualifier: sort.Strings must match the "sort"
		// heuristic by its package name, not just the method name.
		if id, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			return id.Name + "." + fun.Sel.Name
		}
		return fun.Sel.Name
	}
	return ""
}

// baseObj strips derefs/selectors/indexes down to the root identifier's
// object: the variable whose state an lvalue or argument denotes.
func baseObj(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			if obj := info.Uses[x]; obj != nil {
				return obj
			}
			return info.Defs[x]
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		case *ast.SelectorExpr:
			// Qualified identifier (pkg.Var): the object is the Sel.
			if id, ok := x.X.(*ast.Ident); ok {
				if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
					return info.Uses[x.Sel]
				}
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.TypeAssertExpr:
			e = x.X
		case *ast.CallExpr:
			return nil // derived from a call: no stable base
		default:
			return nil
		}
	}
}

// propagate runs the flow-insensitive taint fixpoint over the whole unit
// (deep walk: literals share the environment).
func (st *unitState) propagate() {
	body := st.u.root.Body()
	if body == nil {
		return
	}
	for iter := 0; iter < 32; iter++ {
		changed := false
		bump := func(obj types.Object, k Kind) {
			if obj == nil || k == 0 {
				return
			}
			if st.taint[obj]|k != st.taint[obj] {
				st.taint[obj] |= k
				changed = true
			}
		}
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				st.assign(n, bump)
			case *ast.ValueSpec:
				if len(n.Names) == len(n.Values) {
					for i, name := range n.Names {
						bump(st.info().Defs[name], st.kindOf(n.Values[i]))
					}
				} else if len(n.Values) == 1 {
					k := st.kindOf(n.Values[0])
					for _, name := range n.Names {
						bump(st.info().Defs[name], k)
					}
				}
			case *ast.RangeStmt:
				st.rangeTaint(n, bump)
			}
			return true
		})
		if !changed {
			return
		}
	}
}

func (st *unitState) assign(n *ast.AssignStmt, bump func(types.Object, Kind)) {
	if len(n.Lhs) == len(n.Rhs) {
		for i, lhs := range n.Lhs {
			k := st.kindOf(n.Rhs[i])
			if st.mapIndexWrite(lhs) || st.numericReduction(n, lhs) {
				k &^= KMapOrder
			}
			bump(lhsObj(st.info(), lhs), k)
		}
		return
	}
	if len(n.Rhs) == 1 { // tuple: x, y := f()
		k := st.kindOf(n.Rhs[0])
		for _, lhs := range n.Lhs {
			if st.mapIndexWrite(lhs) {
				k &^= KMapOrder
			}
			bump(lhsObj(st.info(), lhs), k)
		}
	}
}

// numericReduction reports whether the assignment is a commutative
// compound op (+=, -=, *=, |=, &=, ^=, &^=) on a numeric lvalue. Folding
// map values into a numeric accumulator is order-insensitive — the final
// value does not depend on iteration order — so KMapOrder does not
// propagate (localRangeSinks likewise only flags append and emission
// inside range-over-map bodies, never scalar folds). String += is NOT
// forgiven: concatenation order shows.
func (st *unitState) numericReduction(n *ast.AssignStmt, lhs ast.Expr) bool {
	switch n.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN,
		token.AND_ASSIGN, token.OR_ASSIGN, token.XOR_ASSIGN, token.AND_NOT_ASSIGN:
	default:
		return false
	}
	tv, ok := st.info().Types[lhs]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsNumeric != 0
}

// mapIndexWrite reports whether lhs is m[k] for a map m. A map insert is
// order-insensitive — the resulting content does not depend on the order
// the keys were written — so KMapOrder does not propagate through it
// (localRangeSinks forgives map inserts inside range-over-map bodies for
// the same reason).
func (st *unitState) mapIndexWrite(lhs ast.Expr) bool {
	ix, ok := ast.Unparen(lhs).(*ast.IndexExpr)
	if !ok {
		return false
	}
	tv, ok := st.info().Types[ix.X]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// lhsObj is the object an assignment writes: the defined/used ident, or
// the base variable for compound lvalues (v.f = x taints v — containers
// accumulate their elements' taint, flow-insensitively).
func lhsObj(info *types.Info, lhs ast.Expr) types.Object {
	if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
		if obj := info.Defs[id]; obj != nil {
			return obj
		}
		return info.Uses[id]
	}
	return baseObj(info, lhs)
}

func (st *unitState) rangeTaint(n *ast.RangeStmt, bump func(types.Object, Kind)) {
	xk := st.kindOf(n.X)
	over := Kind(0)
	if isMapRange(st.info(), n) {
		over = KMapOrder
	}
	for _, e := range []ast.Expr{n.Key, n.Value} {
		if e == nil {
			continue
		}
		if id, ok := e.(*ast.Ident); ok {
			obj := st.info().Defs[id]
			if obj == nil {
				obj = st.info().Uses[id]
			}
			bump(obj, (xk&SourceMask)|over)
		}
	}
}

// kindOf evaluates an expression's taint under the current environment.
func (st *unitState) kindOf(e ast.Expr) Kind {
	switch e := e.(type) {
	case *ast.Ident:
		obj := st.info().Uses[e]
		if obj == nil {
			obj = st.info().Defs[e]
		}
		k := st.taint[obj]
		if st.sorted[obj] {
			k &^= KMapOrder
		}
		return k
	case *ast.CallExpr:
		return st.kindOfCall(e)
	case *ast.BinaryExpr:
		return st.kindOf(e.X) | st.kindOf(e.Y)
	case *ast.UnaryExpr:
		return st.kindOf(e.X)
	case *ast.ParenExpr:
		return st.kindOf(e.X)
	case *ast.StarExpr:
		return st.kindOf(e.X)
	case *ast.IndexExpr:
		return st.kindOf(e.X)
	case *ast.SliceExpr:
		return st.kindOf(e.X)
	case *ast.TypeAssertExpr:
		return st.kindOf(e.X)
	case *ast.SelectorExpr:
		// Qualified package var reads stay clean (globals untracked);
		// field reads inherit the container's taint.
		if id, ok := e.X.(*ast.Ident); ok {
			if _, isPkg := st.info().Uses[id].(*types.PkgName); isPkg {
				return 0
			}
		}
		return st.kindOf(e.X)
	case *ast.CompositeLit:
		var k Kind
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				k |= st.kindOf(kv.Value)
			} else {
				k |= st.kindOf(el)
			}
		}
		return k
	}
	return 0
}

// effectiveArgs is the call's arguments with the receiver prepended for
// method calls, matching Summary's param numbering.
func effectiveArgs(info *types.Info, call *ast.CallExpr) []ast.Expr {
	args := call.Args
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if info.Selections[sel] != nil {
			return append([]ast.Expr{sel.X}, args...)
		}
	}
	return args
}

func (st *unitState) kindOfCall(call *ast.CallExpr) Kind {
	info := st.info()
	// Type conversion: T(x) keeps x's taint.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			return st.kindOf(call.Args[0])
		}
		return 0
	}
	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "append":
				var k Kind
				for _, a := range call.Args {
					k |= st.kindOf(a)
				}
				return k
			case "len", "cap", "make", "new", "delete", "close", "min", "max":
				if b.Name() == "min" || b.Name() == "max" {
					var k Kind
					for _, a := range call.Args {
						k |= st.kindOf(a)
					}
					return k
				}
				return 0
			}
			return 0
		}
	}
	// slices.Sorted and its Func variants order what they collect: the
	// result keeps its argument's taint, but not the map's order.
	if fn := lint.FuncObjOf(info, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "slices" {
		switch fn.Name() {
		case "Sorted", "SortedFunc", "SortedStableFunc":
			return st.kindOf(call.Args[0]) &^ KMapOrder
		}
	}
	// Explicit sources.
	if k := SourceOf(lint.FuncObjOf(info, call)); k != 0 {
		return k
	}
	// Resolved callees with summaries (in-tree or modeled).
	ids := st.t.Graph.ResolveFuncExpr(st.pkg, call.Fun)
	args := effectiveArgs(info, call)
	var k Kind
	resolved := false
	for _, id := range ids {
		s := st.t.SummaryFor(id)
		if s == nil {
			continue
		}
		resolved = true
		k |= s.ReturnTaint
		for i := 0; i < len(args) && i < 64; i++ {
			if s.ReturnFromParams&(1<<i) != 0 {
				k |= st.kindOf(args[i])
			}
		}
	}
	if resolved {
		return k
	}
	// Unmodeled call into a trusted package: the deterministic substrate
	// (sim, trace, metrics, stats) returns clean values by contract — its
	// sinks and sources are enumerated in the models table, everything
	// else neither launders taint in nor leaks nondeterminism out.
	// Without this, every sim.Stats()/metrics lookup would conservatively
	// inherit its receiver's taint and drown the tree in noise.
	if fn := lint.FuncObjOf(info, call); fn != nil && fn.Pkg() != nil && Trusted(fn.Pkg().Path()) {
		return 0
	}
	// Unknown callee (stdlib without a model, dynamic func value,
	// interface method): conservative pass-through of every argument and
	// the callee expression itself.
	for _, a := range args {
		k |= st.kindOf(a)
	}
	k |= st.kindOf(call.Fun)
	return k
}
