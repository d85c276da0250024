// Package linttest is the fixture harness for spritelint analyzers — a
// stdlib-only stand-in for golang.org/x/tools/go/analysis/analysistest
// (unavailable offline). A fixture lives in the analyzer's
// testdata/src/<pkg>/ directory and annotates the lines it expects
// diagnostics on:
//
//	rand.Intn(4) // want `global rand\.Intn`
//
// Each `// want` comment holds one or more quoted regular expressions, one
// per expected diagnostic on that line, in report order; a line with no
// want comment must produce no diagnostics. Imports resolve first against
// stub packages — under the analyzer's own testdata/src, then under this
// package's testdata/src, which holds the one set of sprite/internal/...
// stubs every fixture shares — and then against real packages via `go
// list -export` run at the module root. Suppression comments
// (//spritelint:allow) are honored, so fixtures exercise the escape hatch
// by pairing an allow comment with the absence of a want.
package linttest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"sprite/internal/analysis/dataflow"
	"sprite/internal/analysis/lint"
	"sprite/internal/analysis/load"
)

// RunTree loads testdata/src/<pkgname> (relative to the test's working
// directory) plus every stub package it imports (transitively) as a small
// whole program, runs the engine and then the analyzers over it, and
// compares their diagnostics — restricted to the fixture package's own
// files — against the fixture's want annotations.
//
// Stub packages take part in the analysis as real packages: the stub at
// sprite/internal/sim is recognized as trusted and modeled, while a
// non-trusted stub (a fake helper package) gets its own computed
// summaries, so fixtures can stage cross-package violations.
func RunTree(t *testing.T, pkgname string, analyzers ...*dataflow.TreeAnalyzer) *dataflow.Tree {
	t.Helper()
	local, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	root := moduleRoot(t)
	stubRoots := []string{local, filepath.Join(root, "internal", "analysis", "linttest", "testdata", "src")}
	dir := filepath.Join(local, pkgname)

	fset := token.NewFileSet()
	files, err := parseDir(fset, dir)
	if err != nil {
		t.Fatalf("parsing fixture %s: %v", dir, err)
	}

	stubFiles, external := resolveStubTree(fset, stubRoots, files)
	exports, err := load.ExportData(root, external)
	if err != nil {
		t.Fatalf("export data for fixture imports: %v", err)
	}
	imp := &layeredImporter{checked: make(map[string]*types.Package), base: load.NewImporter(fset, exports)}

	// Type-check stubs callees-first: a stub is ready once every stub it
	// imports is already checked.
	var pkgs []*load.Package
	for len(stubFiles) > 0 {
		var ready []string
		for path, fs := range stubFiles {
			ok := true
			for _, ip := range importPaths(fs) {
				if _, pending := stubFiles[ip]; pending {
					ok = false
					break
				}
			}
			if ok {
				ready = append(ready, path)
			}
		}
		if len(ready) == 0 {
			t.Fatalf("import cycle among fixture stubs")
		}
		sort.Strings(ready)
		for _, path := range ready {
			pkgs = append(pkgs, checkOne(t, fset, imp, path, stubFiles[path]))
			delete(stubFiles, path)
		}
	}
	pkgs = append(pkgs, checkOne(t, fset, imp, pkgname, files))

	tree := dataflow.Analyze(pkgs)
	// Only the fixture package's own diagnostics are compared; stub
	// packages exist to be called into, not asserted on.
	var own []lint.Diagnostic
	for _, a := range analyzers {
		diags, err := a.Run(tree)
		if err != nil {
			t.Fatalf("analyzer %s: %v", a.Name, err)
		}
		for _, d := range diags {
			if filepath.Dir(d.Pos.Filename) == dir {
				own = append(own, d)
			}
		}
	}
	compare(t, fset, files, lint.NewSuppressor(fset, files).Filter(own))
	return tree
}

func parseDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, de := range entries {
		if de.IsDir() || !strings.HasSuffix(de.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, de.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no .go files in %s", dir)
	}
	return files, nil
}

// resolveStubTree walks the fixture's import graph: a path with a source
// directory under one of the stub roots becomes a stub package
// (recursively), everything else is external and needs export data.
func resolveStubTree(fset *token.FileSet, stubRoots []string, files []*ast.File) (stubs map[string][]*ast.File, external []string) {
	stubs = make(map[string][]*ast.File)
	seen := make(map[string]bool)
	queue := files
	for len(queue) > 0 {
		f := queue[0]
		queue = queue[1:]
	imports:
		for _, path := range importPaths([]*ast.File{f}) {
			if seen[path] {
				continue
			}
			seen[path] = true
			for _, root := range stubRoots {
				if fs, err := parseDir(fset, filepath.Join(root, filepath.FromSlash(path))); err == nil {
					stubs[path] = fs
					queue = append(queue, fs...)
					continue imports
				}
			}
			external = append(external, path)
		}
	}
	sort.Strings(external)
	return stubs, external
}

func importPaths(files []*ast.File) []string {
	var out []string
	for _, f := range files {
		for _, spec := range f.Imports {
			if p, err := strconv.Unquote(spec.Path.Value); err == nil {
				out = append(out, p)
			}
		}
	}
	return out
}

func checkOne(t *testing.T, fset *token.FileSet, imp *layeredImporter, path string, files []*ast.File) *load.Package {
	t.Helper()
	pkg := &load.Package{ImportPath: path, Fset: fset, Files: files}
	pkg.Types, pkg.Info = load.Check(fset, path, files, imp, &pkg.TypeErrors)
	for _, e := range pkg.TypeErrors {
		t.Errorf("fixture type error in %s: %v", path, e)
	}
	imp.checked[path] = pkg.Types
	return pkg
}

// layeredImporter serves already-checked fixture packages first and falls
// back to export data for real dependencies.
type layeredImporter struct {
	checked map[string]*types.Package
	base    types.Importer
}

func (l *layeredImporter) Import(path string) (*types.Package, error) {
	if p, ok := l.checked[path]; ok {
		return p, nil
	}
	return l.base.Import(path)
}

// moduleRoot finds the enclosing go.mod directory, where `go list` must
// run for stdlib export data.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above test directory")
		}
		dir = parent
	}
}

// wantChunkRE extracts the quoted regexps of a want comment: double-quoted
// (Go-unquoted) or backquoted chunks after "want".
var wantChunkRE = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

func compare(t *testing.T, fset *token.FileSet, files []*ast.File, diags []lint.Diagnostic) {
	t.Helper()
	wants := make(map[string]map[int][]*regexp.Regexp) // file -> line -> wants
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(strings.TrimSpace(strings.TrimPrefix(c.Text, "//")), "want ")
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				var res []*regexp.Regexp
				for _, chunk := range wantChunkRE.FindAllString(rest, -1) {
					pattern := chunk
					if pattern[0] == '"' {
						unq, err := strconv.Unquote(pattern)
						if err != nil {
							t.Errorf("%s: bad want pattern %s: %v", pos, chunk, err)
							continue
						}
						pattern = unq
					} else {
						pattern = strings.Trim(pattern, "`")
					}
					re, err := regexp.Compile(pattern)
					if err != nil {
						t.Errorf("%s: bad want regexp %q: %v", pos, pattern, err)
						continue
					}
					res = append(res, re)
				}
				if len(res) == 0 {
					t.Errorf("%s: want comment with no patterns", pos)
					continue
				}
				if wants[pos.Filename] == nil {
					wants[pos.Filename] = make(map[int][]*regexp.Regexp)
				}
				wants[pos.Filename][pos.Line] = res
			}
		}
	}

	got := make(map[string]map[int][]lint.Diagnostic)
	for _, d := range diags {
		if got[d.Pos.Filename] == nil {
			got[d.Pos.Filename] = make(map[int][]lint.Diagnostic)
		}
		got[d.Pos.Filename][d.Pos.Line] = append(got[d.Pos.Filename][d.Pos.Line], d)
	}

	for file, byLine := range wants {
		for line, res := range byLine {
			actual := got[file][line]
			if len(actual) != len(res) {
				t.Errorf("%s:%d: want %d diagnostic(s), got %d: %v", file, line, len(res), len(actual), messages(actual))
				continue
			}
			for i, re := range res {
				if !re.MatchString(actual[i].Message) {
					t.Errorf("%s:%d: diagnostic %q does not match want pattern %q", file, line, actual[i].Message, re)
				}
			}
		}
	}
	for file, byLine := range got {
		for line, actual := range byLine {
			if wants[file][line] == nil {
				t.Errorf("%s:%d: unexpected diagnostic(s): %v", file, line, messages(actual))
			}
		}
	}
}

func messages(ds []lint.Diagnostic) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = d.Message
	}
	return out
}
