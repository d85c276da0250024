package callgraph

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"

	"sprite/internal/analysis/load"
)

// mapImporter resolves imports from packages already checked in the test.
type mapImporter map[string]*types.Package

func (m mapImporter) Import(path string) (*types.Package, error) {
	if p, ok := m[path]; ok {
		return p, nil
	}
	return nil, &types.Error{Msg: "test importer: unknown package " + path}
}

// checkPkg parses+type-checks one synthetic package into a *load.Package
// sharing fset, registering it with imp for later packages to import.
func checkPkg(t *testing.T, fset *token.FileSet, imp mapImporter, path string, srcs ...string) *load.Package {
	t.Helper()
	var files []*ast.File
	for i, src := range srcs {
		name := path + "/file" + string(rune('a'+i)) + ".go"
		f, err := parser.ParseFile(fset, name, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("parse %s: %v", name, err)
		}
		files = append(files, f)
	}
	pkg := &load.Package{ImportPath: path, Fset: fset, Files: files}
	pkg.Types, pkg.Info = load.Check(fset, path, files, imp, &pkg.TypeErrors)
	for _, e := range pkg.TypeErrors {
		t.Fatalf("type error in %s: %v", path, e)
	}
	imp[path] = pkg.Types
	return pkg
}

// simStub is a minimal sprite/internal/sim with the confinement points the
// graph resolves. The import path matters: IsMethod matches on it.
const simStub = `package sim

type Env struct{}
type Simulation struct{}

func (*Env) SpawnOn(shard int, name string, fn func(*Env) error)        {}
func (*Env) Spawn(name string, fn func(*Env) error)                     {}
func (*Simulation) SpawnOn(shard int, name string, fn func(*Env) error) {}
func (*Simulation) Spawn(name string, fn func(*Env) error)              {}
`

func TestSCCCondensation(t *testing.T) {
	fset := token.NewFileSet()
	imp := mapImporter{}
	// even/odd are mutually recursive; loop is self-recursive; top calls
	// into both cycles; leaf is called by everything.
	pkg := checkPkg(t, fset, imp, "p", `package p

func leaf() int { return 1 }

func even(n int) bool {
	if n == 0 {
		return true
	}
	leaf()
	return odd(n - 1)
}

func odd(n int) bool {
	if n == 0 {
		return false
	}
	return even(n - 1)
}

func loop(n int) int {
	if n == 0 {
		return leaf()
	}
	return loop(n - 1)
}

func top() {
	even(3)
	loop(3)
}
`)
	g := Build([]*load.Package{pkg})
	sccs := g.Condense()

	// Map each function to its component index.
	comp := make(map[FuncID]int)
	for i, s := range sccs {
		for _, f := range s.Funcs {
			comp[f] = i
		}
	}
	if comp["p.even"] != comp["p.odd"] {
		t.Errorf("even and odd should share an SCC: %d vs %d", comp["p.even"], comp["p.odd"])
	}
	if comp["p.even"] == comp["p.leaf"] || comp["p.loop"] == comp["p.leaf"] {
		t.Errorf("leaf must not join a recursive component")
	}
	if comp["p.loop"] == comp["p.even"] {
		t.Errorf("independent cycles must be separate components")
	}
	// Reverse topological order: callees before callers.
	if !(comp["p.leaf"] < comp["p.even"]) {
		t.Errorf("leaf (%d) must precede even/odd (%d)", comp["p.leaf"], comp["p.even"])
	}
	if !(comp["p.leaf"] < comp["p.loop"]) {
		t.Errorf("leaf (%d) must precede loop (%d)", comp["p.leaf"], comp["p.loop"])
	}
	if !(comp["p.even"] < comp["p.top"]) || !(comp["p.loop"] < comp["p.top"]) {
		t.Errorf("cycles must precede top (even %d loop %d top %d)",
			comp["p.even"], comp["p.loop"], comp["p.top"])
	}
	// The mutual cycle is one component of exactly two functions.
	cyc := sccs[comp["p.even"]].Funcs
	if len(cyc) != 2 {
		t.Errorf("even/odd component = %v, want 2 funcs", cyc)
	}
}

func TestLiteralNodesAndEncloses(t *testing.T) {
	fset := token.NewFileSet()
	imp := mapImporter{}
	pkg := checkPkg(t, fset, imp, "p", `package p

func f() {
	g1 := func() {
		inner := func() {}
		inner()
	}
	g1()
	func() {}() // immediately invoked
}
`)
	g := Build([]*load.Package{pkg})
	for _, id := range []FuncID{"p.f$1", "p.f$1$1", "p.f$2"} {
		if g.Nodes[id] == nil {
			t.Errorf("missing literal node %s; have %v", id, nodeIDs(g))
		}
	}
	edges := edgeSet(g, "p.f")
	if !edges["p.f$1/encloses"] || !edges["p.f$2/encloses"] {
		t.Errorf("f should enclose its literals, got %v", edges)
	}
	if !edges["p.f$1/call"] {
		t.Errorf("f calls g1 (bound literal), got %v", edges)
	}
	if !edges["p.f$2/call"] {
		t.Errorf("f immediately invokes $2, got %v", edges)
	}
	inner := edgeSet(g, "p.f$1")
	if !inner["p.f$1$1/encloses"] || !inner["p.f$1$1/call"] {
		t.Errorf("g1 should enclose+call inner, got %v", inner)
	}
}

func TestCrossPackageEdgesAndMethodValues(t *testing.T) {
	fset := token.NewFileSet()
	imp := mapImporter{}
	checkPkg(t, fset, imp, "q", `package q

type T struct{}

func (T) M()    {}
func Helper()   {}
`)
	pkg := checkPkg(t, fset, imp, "p", `package p

import "q"

func use(fn func()) { fn() }

func f() {
	q.Helper()
	var t q.T
	use(t.M) // method value: a ref, not a call
}
`)
	g := Build([]*load.Package{pkg})
	edges := edgeSet(g, "p.f")
	if !edges["q.Helper/call"] {
		t.Errorf("cross-package call edge missing: %v", edges)
	}
	if !edges["q.(T).M/ref"] {
		t.Errorf("method value should be a ref edge: %v", edges)
	}
	if edges["q.(T).M/call"] {
		t.Errorf("method value must not be a call edge: %v", edges)
	}
}

// TestExplicitInstantiationEdges checks that a call naming its type
// arguments — pop[int](s), q.Pair[int, string](1, "a") — is a call edge to
// the generic function, like the inferred form, and not a value reference.
func TestExplicitInstantiationEdges(t *testing.T) {
	fset := token.NewFileSet()
	imp := mapImporter{}
	checkPkg(t, fset, imp, "q", `package q

func Pair[A, B any](a A, b B) (A, B) { return a, b }
`)
	pkg := checkPkg(t, fset, imp, "p", `package p

import "q"

func pop[T any](s []T) T { return s[len(s)-1] }

func f() {
	_ = pop[int]([]int{1})
	_, _ = q.Pair[int, string](1, "a")
	_ = (pop[string])([]string{"x"})
}

func g() {
	_ = pop([]int{1})
	_, _ = q.Pair(1, "a")
}
`)
	g := Build([]*load.Package{pkg})
	for _, fn := range []FuncID{"p.f", "p.g"} {
		edges := edgeSet(g, fn)
		for _, want := range []string{"p.pop/call", "q.Pair/call"} {
			if !edges[want] {
				t.Errorf("%s: missing edge %s, got %v", fn, want, edges)
			}
		}
		for _, bad := range []string{"p.pop/ref", "q.Pair/ref"} {
			if edges[bad] {
				t.Errorf("%s: a call reported as a value reference %s: %v", fn, bad, edges)
			}
		}
	}
}

func TestSpawnRootResolution(t *testing.T) {
	fset := token.NewFileSet()
	imp := mapImporter{}
	checkPkg(t, fset, imp, "sprite/internal/sim", simStub)
	pkg := checkPkg(t, fset, imp, "p", `package p

import sim "sprite/internal/sim"

func named(env *sim.Env) error { return nil }

func factory() func(*sim.Env) error {
	return func(env *sim.Env) error { return nil }
}

func spawnAll(s *sim.Simulation, env *sim.Env, shard int) {
	s.SpawnOn(shard, "lit", func(env *sim.Env) error { return nil })
	s.SpawnOn(shard, "named", named)
	bound := func(env *sim.Env) error { return nil }
	s.SpawnOn(shard, "bound", bound)
	s.SpawnOn(shard, "factory", factory())
	s.SpawnOn(0, "exclusive", named)
	env.SpawnOn(shard, "env", named)
	env.Spawn("inherit", named)
}
`)
	g := Build([]*load.Package{pkg})

	type want struct {
		body FuncID
		kind RootKind
		via  string
	}
	wants := []want{
		{"p.spawnAll$1", ConfinedRoot, "SpawnOn"},
		{"p.named", ConfinedRoot, "SpawnOn"},
		{"p.spawnAll$2", ConfinedRoot, "SpawnOn"},
		{"p.factory$1", ConfinedRoot, "SpawnOn"},
		{"p.named", ExclusiveRoot, "SpawnOn"},
		{"p.named", ConfinedRoot, "Env.SpawnOn"},
	}
	for _, w := range wants {
		found := false
		for _, r := range g.Roots {
			if r.Body == w.body && r.Kind == w.kind && r.Via == w.via {
				found = true
			}
		}
		if !found {
			t.Errorf("missing root %+v; have %v", w, rootList(g))
		}
	}
	// Env.Spawn must not create a root (shard inherited), only a Spawn edge.
	for _, r := range g.Roots {
		if r.Via == "Env.Spawn" {
			t.Errorf("Env.Spawn must not register a root: %v", rootList(g))
		}
	}
	edges := edgeSet(g, "p.spawnAll")
	if !edges["p.named/spawn"] {
		t.Errorf("spawn edge to named missing: %v", edges)
	}
	if !edges["p.named/spawn-same"] {
		t.Errorf("Env.Spawn should leave a spawn-same edge: %v", edges)
	}
}

func TestMethodValueSpawn(t *testing.T) {
	fset := token.NewFileSet()
	imp := mapImporter{}
	checkPkg(t, fset, imp, "sprite/internal/sim", simStub)
	pkg := checkPkg(t, fset, imp, "p", `package p

import sim "sprite/internal/sim"

type daemon struct{}

func (d *daemon) loop(env *sim.Env) error { return nil }

func boot(s *sim.Simulation, shard int) {
	d := &daemon{}
	s.SpawnOn(shard, "d", d.loop)
}
`)
	g := Build([]*load.Package{pkg})
	found := false
	for _, r := range g.Roots {
		if r.Body == "p.(daemon).loop" && r.Kind == ConfinedRoot {
			found = true
		}
	}
	if !found {
		t.Errorf("method-value spawn unresolved: %v", rootList(g))
	}
}

func nodeIDs(g *Graph) []string {
	var out []string
	for id := range g.Nodes {
		out = append(out, string(id))
	}
	sort.Strings(out)
	return out
}

func edgeSet(g *Graph, id FuncID) map[string]bool {
	out := make(map[string]bool)
	n := g.Nodes[id]
	if n == nil {
		return out
	}
	for _, e := range n.Out {
		out[string(e.Callee)+"/"+e.Kind.String()] = true
	}
	return out
}

func rootList(g *Graph) []string {
	var out []string
	for _, r := range g.Roots {
		kind := "confined"
		if r.Kind == ExclusiveRoot {
			kind = "exclusive"
		}
		out = append(out, strings.Join([]string{string(r.Body), kind, r.Via}, "/"))
	}
	return out
}
