// Package load type-checks this module's packages for spritelint without
// golang.org/x/tools/go/packages (the build container has no module proxy).
// It shells out to `go list -deps -test -export -json` for the package
// graph, parses the module's own packages from source, and imports every
// dependency — stdlib included — through the standard library's gc
// importer, fed by the export-data files the go tool just built. The whole
// pipeline is offline: `go list -export` compiles export data into the
// local build cache from the locally installed sources.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
)

// Package is one analyzable unit: a package's syntax plus its type
// information. For a package with in-package tests, the loader returns the
// test variant (whose file set is a superset of the plain build), so
// analyzers see _test.go files too. External test packages (package
// foo_test) are separate units.
type Package struct {
	// ImportPath is the plain import path ("sprite/internal/core"), with
	// any " [foo.test]" variant suffix stripped.
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
	// TypeErrors collects non-fatal type-check problems. The tree is
	// expected to compile (make build gates before lint), so these
	// normally stay empty; they are surfaced with -debug.
	TypeErrors []error
}

// listEntry is the subset of `go list -json` output the loader consumes.
type listEntry struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	ForTest    string
	DepOnly    bool
	Standard   bool
	Incomplete bool
}

// Packages runs `go list` in dir and returns one Package per matched
// import path, test variants folded in, sorted by import path.
func Packages(dir string, patterns ...string) ([]*Package, error) {
	entries, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}

	exports := make(map[string]string)
	for _, e := range entries {
		if e.Export != "" {
			exports[basePath(e.ImportPath)] = chooseExport(exports[basePath(e.ImportPath)], e)
		}
	}

	// Pick the unit to analyze per base import path: the in-package test
	// variant ("P [P.test]") supersedes the plain package; synthesized
	// ".test" mains are skipped; external test packages ("P_test
	// [P.test]") are their own base path and come along naturally.
	units := make(map[string]listEntry)
	for _, e := range entries {
		if e.DepOnly || e.Standard || strings.HasSuffix(basePath(e.ImportPath), ".test") {
			continue
		}
		base := basePath(e.ImportPath)
		if prev, ok := units[base]; !ok || len(e.GoFiles) > len(prev.GoFiles) {
			units[base] = e
		}
	}

	// Parse and check in import-path order: token positions follow parse
	// order, so graph roots sorted by position come out the same every run.
	fset := token.NewFileSet()
	imp := NewImporter(fset, exports)
	var pkgs []*Package
	for _, base := range slices.Sorted(maps.Keys(units)) {
		p, err := checkEntry(fset, imp, units[base])
		if err != nil {
			return nil, fmt.Errorf("%s: %w", units[base].ImportPath, err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// chooseExport prefers the plain (non-test-variant) export data for a
// path, falling back to whatever is available.
func chooseExport(prev string, e listEntry) string {
	if prev != "" && e.ForTest != "" {
		return prev
	}
	return e.Export
}

func checkEntry(fset *token.FileSet, imp types.Importer, e listEntry) (*Package, error) {
	var files []*ast.File
	for _, name := range e.GoFiles {
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(e.Dir, name)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	pkg := &Package{
		ImportPath: basePath(e.ImportPath),
		Dir:        e.Dir,
		Fset:       fset,
		Files:      files,
	}
	pkg.Types, pkg.Info = Check(fset, pkg.ImportPath, files, imp, &pkg.TypeErrors)
	return pkg, nil
}

// Check type-checks one package's files, tolerating errors (the checker
// keeps going and records them in errs).
func Check(fset *token.FileSet, path string, files []*ast.File, imp types.Importer, errs *[]error) (*types.Package, *types.Info) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{
		Importer: imp,
		Error: func(err error) {
			if errs != nil {
				*errs = append(*errs, err)
			}
		},
	}
	tpkg, _ := conf.Check(path, fset, files, info) // errors already collected
	return tpkg, info
}

// basePath strips go list's test-variant suffix:
// "p [p.test]" -> "p".
func basePath(importPath string) string {
	if i := strings.IndexByte(importPath, ' '); i >= 0 {
		return importPath[:i]
	}
	return importPath
}

func goList(dir string, patterns []string) ([]listEntry, error) {
	args := []string{
		"list", "-e", "-deps", "-test", "-export",
		"-json=ImportPath,Dir,Export,GoFiles,ForTest,DepOnly,Standard,Incomplete",
	}
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var entries []listEntry
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var e listEntry
		if err := dec.Decode(&e); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		entries = append(entries, e)
	}
	return entries, nil
}

// ExportData returns import path -> export-data file for the transitive
// dependency closure of the given import paths (used by the linttest
// fixture harness, whose fixtures import the stdlib).
func ExportData(dir string, paths []string) (map[string]string, error) {
	if len(paths) == 0 {
		return map[string]string{}, nil
	}
	entries, err := goList(dir, paths)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string)
	for _, e := range entries {
		if e.Export != "" && e.ForTest == "" {
			exports[e.ImportPath] = e.Export
		}
	}
	return exports, nil
}

// NewImporter resolves imports for the type-checker from the gc export
// data files `go list -export` produced (import path -> file).
func NewImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
}
