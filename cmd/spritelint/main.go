// Command spritelint is the project's multichecker: it loads the requested
// packages as one tree, computes the whole-tree call graph and function
// summaries once (internal/analysis/dataflow), runs the three analyzers
// over them — simtaint, confine, sharded — and fails (exit 1) on any
// violation. The analyzers statically enforce the contracts everything
// else in this repo only promises: byte-identical goldens, seed-replayable
// fuzzing, the exact virtual-time regression gate, and the parallel
// kernel's confined-activity discipline (DESIGN.md §13).
//
// Usage:
//
//	spritelint [flags] [packages]
//
// With no packages, ./... is linted.
//
//	-list       print the analyzers and exit
//	-json       emit diagnostics and run metadata as JSON
//	-graph      dump the whole-tree call graph (roots included) and exit
//	-deadallow  report //spritelint:allow comments that suppressed
//	            nothing this run (run whole-tree so every analyzer votes)
//	-debug      print per-package load/type-check diagnostics
//
// Violations are suppressed line by line with
//
//	//spritelint:allow <analyzer>[,<analyzer>] <rationale>
//
// covering the full extent of the statement the comment is attached to,
// per the policy in DESIGN.md §11.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"sprite/internal/analysis/confine"
	"sprite/internal/analysis/dataflow"
	"sprite/internal/analysis/lint"
	"sprite/internal/analysis/load"
	"sprite/internal/analysis/sharded"
	"sprite/internal/analysis/simtaint"
)

var analyzers = []*dataflow.TreeAnalyzer{
	simtaint.Analyzer,
	confine.Analyzer,
	sharded.Analyzer,
}

// jsonReport is the -json output schema, kept stable for CI artifacts.
type jsonReport struct {
	Packages    int               `json:"packages"`
	Analyzers   int               `json:"analyzers"`
	Diagnostics []lint.Diagnostic `json:"diagnostics"`
	StaleAllows []lint.StaleAllow `json:"stale_allows,omitempty"`
}

func main() {
	os.Exit(run(".", os.Args[1:], os.Stdout, os.Stderr))
}

// run lints the packages args name, resolved in dir, and returns the exit
// code: 0 clean, 1 findings, 2 could not run.
func run(dir string, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("spritelint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "print the analyzers and exit")
	jsonOut := fs.Bool("json", false, "emit diagnostics and run metadata as JSON")
	graph := fs.Bool("graph", false, "dump the whole-tree call graph and exit")
	deadallow := fs.Bool("deadallow", false, "report allow comments that suppressed nothing this run")
	debug := fs.Bool("debug", false, "print per-package load/type-check diagnostics")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}

	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := load.Packages(dir, patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "spritelint: %v\n", err)
		return 2
	}
	if len(pkgs) == 0 {
		fmt.Fprintln(stderr, "spritelint: no packages matched")
		return 2
	}

	// One suppressor across every package: a diagnostic lands in whichever
	// file the violating function lives, and the -deadallow audit needs the
	// global view of which allows fired.
	supp := lint.NewSuppressor(pkgs[0].Fset, nil)
	for _, pkg := range pkgs {
		if *debug {
			fmt.Fprintf(stderr, "spritelint: %s: %d files, %d type errors\n",
				pkg.ImportPath, len(pkg.Files), len(pkg.TypeErrors))
			for _, e := range pkg.TypeErrors {
				fmt.Fprintf(stderr, "spritelint:   type error: %v\n", e)
			}
		}
		supp.Add(pkg.Fset, pkg.Files)
	}

	tree := dataflow.Analyze(pkgs)
	if *graph {
		fmt.Fprint(stdout, tree.Graph.Dump())
		return 0
	}

	var all []lint.Diagnostic
	for _, a := range analyzers {
		diags, err := a.Run(tree)
		if err != nil {
			fmt.Fprintf(stderr, "spritelint: %s: %v\n", a.Name, err)
			return 2
		}
		all = append(all, diags...)
	}
	all = supp.Filter(all)
	var stale []lint.StaleAllow
	if *deadallow {
		stale = supp.Stale()
	}
	exit := 0
	if len(all) > 0 || len(stale) > 0 {
		exit = 1
	}

	if *jsonOut {
		rep := jsonReport{
			Packages:    len(pkgs),
			Analyzers:   len(analyzers),
			Diagnostics: all,
			StaleAllows: stale,
		}
		if rep.Diagnostics == nil {
			rep.Diagnostics = []lint.Diagnostic{}
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintf(stderr, "spritelint: %v\n", err)
			return 2
		}
		return exit
	}

	for _, d := range all {
		fmt.Fprintln(stdout, d)
	}
	for _, s := range stale {
		fmt.Fprintf(stdout, "%s: stale //spritelint:allow %s — it suppressed nothing this run; delete it (deadallow)\n", s.Pos, s.Name)
	}
	if exit == 0 {
		fmt.Fprintf(stdout, "spritelint: %d packages clean under %d analyzers\n", len(pkgs), len(analyzers))
	}
	return exit
}
