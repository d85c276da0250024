// Package metricname enforces the metric naming convention,
// area.noun[.verb]: lowercase dot-separated segments, area first
// ("rpc.bulk.retransmits", "recovery.detect_latency"). Snapshot goldens
// and the experiment tables key on these strings, so a renamed or
// misspelled metric is a silent golden break; the convention also keeps
// the sorted snapshot rendering grouped by subsystem.
//
// Dynamically-built names (per-host counters, per-phase timings) are
// allowed only when they carry a recognizable literal backbone: every
// literal fragment of the expression — including a fmt.Sprintf format with
// its verbs masked — must itself be made of conforming segments. A name
// with no literal fragment at all is flagged: nothing ties it to the
// convention or to the goldens that consume it.
//
// _test.go files are exempt: tests build scratch registries with throwaway
// names ("a.count", "t1") that never reach a golden.
package metricname

import (
	"fmt"
	"go/ast"
	"regexp"
	"strings"

	"sprite/internal/analysis/dataflow"
	"sprite/internal/analysis/lint"
	"sprite/internal/analysis/load"
)

// methods are the Registry entry points that mint a named instrument.
var methods = map[string]bool{
	"Counter": true,
	"Gauge":   true,
	"Timing":  true,
}

const metricsPkg = "sprite/internal/metrics"

var (
	segmentRE = regexp.MustCompile(`^[a-z][a-z0-9_-]*$`)
	verbRE    = regexp.MustCompile(`%[#+\- 0-9.]*[a-zA-Z]`)
)

// Analyzer is the metricname check.
var Analyzer = &dataflow.TreeAnalyzer{
	Name: "metricname",
	Doc:  "metric names must follow area.noun[.verb] (lowercase dot-separated segments); dynamic names need a conforming literal backbone",
	Run:  run,
}

func run(t *dataflow.Tree) ([]lint.Diagnostic, error) {
	var diags []lint.Diagnostic
	for _, pkg := range t.Pkgs {
		for _, f := range pkg.Files {
			if strings.HasSuffix(pkg.Fset.Position(f.Pos()).Filename, "_test.go") {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := lint.FuncObjOf(pkg.Info, call)
				if fn == nil || !methods[fn.Name()] || !lint.IsMethod(fn, metricsPkg, "Registry", fn.Name()) || len(call.Args) == 0 {
					return true
				}
				arg := call.Args[0]
				for _, msg := range checkName(pkg, arg) {
					diags = append(diags, lint.Diagnostic{Pos: pkg.Fset.Position(arg.Pos()), Analyzer: "metricname", Message: msg})
				}
				return true
			})
		}
	}
	return diags, nil
}

// checkName returns what is wrong with one name argument, if anything.
func checkName(pkg *load.Package, arg ast.Expr) []string {
	if name, ok := lint.ConstString(pkg.Info, arg); ok {
		if !validFullName(name) {
			return []string{fmt.Sprintf("metric name %q does not follow area.noun[.verb] (two or more lowercase dot-separated segments)", name)}
		}
		return nil
	}
	frags, _ := fragments(pkg, arg)
	if len(frags) == 0 {
		return []string{"dynamically-built metric name with no literal fragment: give it a literal area.noun backbone so snapshot goldens stay traceable"}
	}
	var msgs []string
	for _, frag := range frags {
		if bad, ok := badSegment(frag); ok {
			msgs = append(msgs, fmt.Sprintf("metric name fragment %q: segment %q breaks the area.noun[.verb] convention (lowercase [a-z0-9_-])", frag, bad))
		}
	}
	return msgs
}

// validFullName checks a complete constant name: >= 2 segments, each
// conforming.
func validFullName(name string) bool {
	segs := strings.Split(name, ".")
	if len(segs) < 2 {
		return false
	}
	for _, s := range segs {
		if !segmentRE.MatchString(s) {
			return false
		}
	}
	return true
}

// badSegment validates one literal fragment of a dynamic name. Fragments
// may begin or end mid-name ("mig.phase.", ".calls"), so edge dots are
// fine and empty edge segments are skipped.
func badSegment(frag string) (string, bool) {
	for _, s := range strings.Split(strings.Trim(frag, "."), ".") {
		if s != "" && !segmentRE.MatchString(s) {
			return s, true
		}
	}
	return "", false
}

// fragments collects the literal pieces of a dynamic name expression:
// string constants in a concatenation chain, and the (verb-masked) format
// of a fmt.Sprintf call.
func fragments(pkg *load.Package, e ast.Expr) (frags []string, dynamic bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.BinaryExpr:
		lf, ld := fragments(pkg, e.X)
		rf, rd := fragments(pkg, e.Y)
		return append(lf, rf...), ld || rd
	case *ast.CallExpr:
		if fn := lint.FuncObjOf(pkg.Info, e); lint.IsPkgFunc(fn, "fmt", "Sprintf") && len(e.Args) > 0 {
			if format, ok := lint.ConstString(pkg.Info, e.Args[0]); ok {
				return []string{verbRE.ReplaceAllString(format, "x")}, true
			}
		}
		return nil, true
	default:
		if s, ok := lint.ConstString(pkg.Info, e); ok {
			return []string{s}, false
		}
		return nil, true
	}
}
