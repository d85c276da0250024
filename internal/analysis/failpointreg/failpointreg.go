// Package failpointreg cross-checks failpoint names against the registry
// in internal/fault/failpoints.go. Failpoint names are stringly-typed
// contracts shared by the kernel's injection sites, the fault plane's
// arming calls, the fuzzer's fault-kind pool, the chaos tests, and
// DESIGN.md; a typo ("mig.steams") silently arms a point nothing ever
// consults. The analyzer flags every constant failpoint name that is not
// in the registry; after a whole-tree run the spritelint driver also asks
// DeadEntries for registered names no call site uses any more.
//
// Non-constant names (the fuzzer draws its point from the registry slice
// at run time) are out of static reach and are deliberately not flagged —
// the registry-derived pool is the endorsed way to build one.
package failpointreg

import (
	"fmt"
	"go/ast"
	"go/token"

	"sprite/internal/analysis/dataflow"
	"sprite/internal/analysis/lint"
	"sprite/internal/fault"
)

// site describes one API whose call carries a failpoint name.
type site struct {
	pkg, typ, method string
	arg              int // index of the name argument
}

// sites are the fault-plane entry points audited for this registry.
var sites = []site{
	{pkg: "sprite/internal/core", typ: "Cluster", method: "FailAt", arg: 1},
	{pkg: "sprite/internal/fault", typ: "Plane", method: "FailMigration", arg: 0},
}

// SiteRef is one constant failpoint name observed at a fault-plane call.
type SiteRef struct {
	Name       string
	Pos        token.Position
	Registered bool
}

// Analyzer is the failpointreg check.
var Analyzer = &dataflow.TreeAnalyzer{
	Name: "failpointreg",
	Doc:  "failpoint names passed to the fault plane must be registered in internal/fault/failpoints.go",
	Run: func(t *dataflow.Tree) ([]lint.Diagnostic, error) {
		var diags []lint.Diagnostic
		for _, ref := range Sites(t) {
			if !ref.Registered {
				diags = append(diags, diag(ref.Pos,
					"failpoint %q is not in the registry (internal/fault/failpoints.go); register it or fix the name", ref.Name))
			}
		}
		return diags, nil
	},
}

func diag(pos token.Position, format string, args ...any) lint.Diagnostic {
	return lint.Diagnostic{Pos: pos, Analyzer: "failpointreg", Message: fmt.Sprintf(format, args...)}
}

// Sites returns every constant failpoint name observed at a fault-plane
// call, in package and source order (the -audit-failpoints listing).
func Sites(t *dataflow.Tree) []SiteRef {
	var refs []SiteRef
	for _, pkg := range t.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := lint.FuncObjOf(pkg.Info, call)
				if fn == nil {
					return true
				}
				for _, s := range sites {
					if !lint.IsMethod(fn, s.pkg, s.typ, s.method) || len(call.Args) <= s.arg {
						continue
					}
					name, ok := lint.ConstString(pkg.Info, call.Args[s.arg])
					if !ok {
						continue // dynamic: registry-derived by construction
					}
					refs = append(refs, SiteRef{
						Name:       name,
						Pos:        pkg.Fset.Position(call.Args[s.arg].Pos()),
						Registered: fault.RegisteredFailpoint(name),
					})
				}
				return true
			})
		}
	}
	return refs
}

// DeadEntries reports the registered failpoints no call site in the tree
// references. Meaningful only when the tree is the whole module; the
// driver gates it on the ./... pattern.
func DeadEntries(t *dataflow.Tree) []lint.Diagnostic {
	seen := make(map[string]bool)
	for _, r := range Sites(t) {
		seen[r.Name] = true
	}
	var dead []lint.Diagnostic
	for _, fp := range fault.Failpoints {
		if !seen[fp.Name] {
			dead = append(dead, diag(token.Position{},
				"internal/fault/failpoints.go: registered failpoint %q has no remaining call site; delete the entry or restore the site", fp.Name))
		}
	}
	return dead
}
