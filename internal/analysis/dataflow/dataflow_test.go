package dataflow

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"sort"
	"testing"

	"sprite/internal/analysis/callgraph"
	"sprite/internal/analysis/load"
)

type mapImporter map[string]*types.Package

func (m mapImporter) Import(path string) (*types.Package, error) {
	if p, ok := m[path]; ok {
		return p, nil
	}
	return nil, &types.Error{Msg: "test importer: unknown package " + path}
}

func checkPkg(t *testing.T, fset *token.FileSet, imp mapImporter, path, src string) *load.Package {
	t.Helper()
	f, err := parser.ParseFile(fset, path+"/a.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
	pkg := &load.Package{ImportPath: path, Fset: fset, Files: []*ast.File{f}}
	pkg.Types, pkg.Info = load.Check(fset, path, []*ast.File{f}, imp, &pkg.TypeErrors)
	for _, e := range pkg.TypeErrors {
		t.Fatalf("type error in %s: %v", path, e)
	}
	imp[path] = pkg.Types
	return pkg
}

// fakeTime stands in for the real time package: same import path and
// names, so the source classification fires without stdlib export data.
const fakeTime = `package time

type Time struct{ ns int64 }
type Duration int64

func Now() Time                  { return Time{} }
func Since(t Time) Duration      { return 0 }
func (t Time) UnixNano() int64   { return t.ns }
func (t Time) String() string    { return string(rune(t.ns)) }
func (d Duration) String() string { return string(rune(d)) }
`

// fakeSim mirrors the sim API surface the models table classifies.
const fakeSim = `package sim

type Rand struct{}
func (*Rand) Intn(n int) int { return 0 }

type Env struct{}
type Simulation struct{}

func (*Env) Emit(kind, detail string)                                   {}
func (*Env) Rand() *Rand                                                { return nil }
func (*Env) LocalRand() *Rand                                           { return nil }
func (*Env) Spawn(name string, fn func(*Env) error)                     {}
func (*Env) SpawnOn(shard int, name string, fn func(*Env) error)        {}
func (*Simulation) SpawnOn(shard int, name string, fn func(*Env) error) {}
func (*Simulation) Rand() *Rand                                         { return nil }
`

func analyzeSrc(t *testing.T, src string) *Tree {
	t.Helper()
	fset := token.NewFileSet()
	imp := mapImporter{}
	tm := checkPkg(t, fset, imp, "time", fakeTime)
	sim := checkPkg(t, fset, imp, "sprite/internal/sim", fakeSim)
	p := checkPkg(t, fset, imp, "p", src)
	return Analyze([]*load.Package{tm, sim, p})
}

// TestRecursiveConvergence pins the satellite requirement: summaries on a
// mutually recursive cycle converge (taint circulates around the cycle
// until the fixpoint) and the pass terminates.
func TestRecursiveConvergence(t *testing.T) {
	tree := analyzeSrc(t, `package p

import "time"

func source() int64 { return time.Now().UnixNano() }

func a(n int) int64 {
	if n == 0 {
		return source()
	}
	return b(n - 1)
}

func b(n int) int64 { return a(n - 1) }
`)
	for _, fn := range []callgraph.FuncID{"p.source", "p.a", "p.b"} {
		s := tree.Sums[fn]
		if s == nil {
			t.Fatalf("no summary for %s", fn)
		}
		if s.ReturnTaint&KWalltime == 0 {
			t.Errorf("%s: wall-clock taint should circulate the cycle, got %v", fn, s.ReturnTaint)
		}
	}
	// The clean parameter must not be blamed: n does not flow to returns
	// as taint, only the source does.
	if tree.Sums["p.b"].ReturnFromParams&1 == 0 {
		t.Errorf("b's return derives from its param (passed into the cycle): %b", tree.Sums["p.b"].ReturnFromParams)
	}
}

func TestSinkParamAndInterproceduralHit(t *testing.T) {
	tree := analyzeSrc(t, `package p

import (
	sim "sprite/internal/sim"
	"time"
)

func logIt(env *sim.Env, s string) { env.Emit("k", s) }

func now() string { return time.Now().String() }

func caller(env *sim.Env) { logIt(env, now()) }
`)
	// logIt's param 1 (env is 0) reaches Env.Emit.
	if s := tree.Sums["p.logIt"]; s == nil || s.SinkParams&(1<<1) == 0 {
		t.Fatalf("logIt should report SinkParams bit 1, got %+v", tree.Sums["p.logIt"])
	}
	// caller passes a wall-clock-derived string into it: one hit, one hop
	// away from the source, invisible to any per-function analyzer.
	s := tree.Sums["p.caller"]
	if s == nil || len(s.SinkHits) != 1 {
		t.Fatalf("caller should have 1 sink hit, got %+v", s)
	}
	if s.SinkHits[0].Kinds&KWalltime == 0 {
		t.Errorf("hit should carry wall-clock taint: %+v", s.SinkHits[0])
	}
}

func TestMapOrderSortForgiveness(t *testing.T) {
	tree := analyzeSrc(t, `package p

func sortStrings(s []string) {}

func keysSorted(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sortStrings(out)
	return out
}

func keysUnsorted(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
`)
	if s := tree.Sums["p.keysUnsorted"]; s == nil || s.ReturnTaint&KMapOrder == 0 {
		t.Errorf("unsorted keys must carry map-order taint: %+v", s)
	}
	if s := tree.Sums["p.keysSorted"]; s != nil && s.ReturnTaint&KMapOrder != 0 {
		t.Errorf("a later sort forgives map-order taint: %+v", s)
	}
}

func TestMutationsEmitsAndRangeHits(t *testing.T) {
	tree := analyzeSrc(t, `package p

import sim "sprite/internal/sim"

var registry = map[string]int{}

func poke() { registry["x"] = 1 }

func record(out *[]string, s string) { *out = append(*out, s) }

func helperEmit(env *sim.Env, s string) { env.Emit("k", s) }

func useRange(m map[string]string, env *sim.Env) {
	for k := range m {
		helperEmit(env, k)
	}
}
`)
	if s := tree.Sums["p.poke"]; s == nil || len(s.MutatesGlobals) != 1 || s.MutatesGlobals[0] != "p.registry" {
		t.Errorf("poke should mutate p.registry: %+v", s)
	}
	if s := tree.Sums["p.record"]; s == nil || s.MutatesParams&1 == 0 || !s.Emits {
		t.Errorf("record mutates param 0 and emits: %+v", s)
	}
	s := tree.Sums["p.useRange"]
	if s == nil || len(s.RangeEmitHits) != 1 || s.RangeEmitHits[0].Callee != "p.helperEmit" {
		t.Errorf("map-range calling an emitter is the interprocedural maporder hit: %+v", s)
	}
	// The map key reaching Emit through helperEmit is also a taint hit.
	found := false
	for _, h := range s.SinkHits {
		if h.Kinds&KMapOrder != 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("map-order key flowing into Emit via helper should hit: %+v", s.SinkHits)
	}
}

func TestConfinedReachabilityAndFacts(t *testing.T) {
	tree := analyzeSrc(t, `package p

import sim "sprite/internal/sim"

func confinedBody(env *sim.Env) error {
	helper(env)
	return nil
}

func helper(env *sim.Env) { deep(env) }

func deep(env *sim.Env) { _ = env.Rand() }

func boot(s *sim.Simulation, shard int) {
	s.SpawnOn(shard, "x", confinedBody)
}
`)
	reach := tree.ConfinedReachable()
	ch := reach["p.deep"]
	if ch == nil {
		t.Fatalf("deep should be confined-reachable; reach=%v", keys(reach))
	}
	wantPath := []callgraph.FuncID{"p.confinedBody", "p.helper", "p.deep"}
	if len(ch.Path) != len(wantPath) {
		t.Fatalf("chain %v, want %v", ch.Path, wantPath)
	}
	for i := range wantPath {
		if ch.Path[i] != wantPath[i] {
			t.Fatalf("chain %v, want %v", ch.Path, wantPath)
		}
	}
	s := tree.Sums["p.deep"]
	if s == nil || len(s.BannedCalls) != 1 {
		t.Fatalf("deep calls Env.Rand (banned confined): %+v", s)
	}
}

func keys[K comparable, V any](m map[K]V) []string {
	var out []string
	for k := range m {
		out = append(out, fmt.Sprint(k))
	}
	sort.Strings(out)
	return out
}
