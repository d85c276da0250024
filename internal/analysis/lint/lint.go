// Package lint holds what every spritelint analyzer shares: the
// positional Diagnostic, the comment-driven Suppressor (with the stale-allow
// audit), and a few go/types helpers. The analyzers themselves are
// dataflow.TreeAnalyzers — the container building this repo has no module
// proxy, so golang.org/x/tools/go/analysis is unavailable and the suite is
// stdlib-only.
//
// The project contracts the analyzers enforce are documented in DESIGN.md
// §11 ("Static contracts").
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one reported violation.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// AllowPrefix introduces a suppression comment. A comment of the form
//
//	//spritelint:allow simtaint[,confine] [rationale...]
//
// suppresses the named analyzers' diagnostics on the statement it is
// attached to: the statement (or declaration) starting on the comment's
// own line for end-of-line placement, or on the line immediately below it
// for standalone placement — covering every line of that statement, so a
// call wrapped across lines stays suppressed. Compound statements
// (if/for/switch/select) and function declarations are covered only
// through their headers; an allow above an `if` does not silence its
// whole body. Suppressions are deliberate, visible, and greppable — the
// policy in DESIGN.md §11 requires a rationale after the analyzer list.
const AllowPrefix = "//spritelint:allow"

// allowEntry is one (comment, analyzer-name) suppression, tracked for the
// -deadallow audit: an entry that never suppresses anything is stale.
type allowEntry struct {
	Pos  token.Position // the allow comment itself
	Name string
	used bool
}

// StaleAllow identifies an allow comment entry that suppressed nothing.
type StaleAllow struct {
	Pos  token.Position
	Name string
}

// Suppressor decides whether a diagnostic is silenced by an allow comment.
type Suppressor struct {
	// file -> line -> analyzer name -> entry covering that line.
	allowed map[string]map[int]map[string]*allowEntry
	entries []*allowEntry
	byKey   map[string]*allowEntry // "file:commentLine:name", dedupes re-added files
}

// NewSuppressor scans the files' comments for allow directives.
func NewSuppressor(fset *token.FileSet, files []*ast.File) *Suppressor {
	s := &Suppressor{
		allowed: make(map[string]map[int]map[string]*allowEntry),
		byKey:   make(map[string]*allowEntry),
	}
	s.Add(fset, files)
	return s
}

// Add scans more files into the suppressor. The driver aggregates every
// loaded package into one suppressor so tree-analyzer diagnostics and the
// -deadallow audit see all files; re-adding a file (test variants share
// sources) is idempotent.
func (s *Suppressor) Add(fset *token.FileSet, files []*ast.File) {
	for _, f := range files {
		ext := stmtExtents(fset, f)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, AllowPrefix)
				if !ok {
					continue
				}
				names, _, _ := strings.Cut(strings.TrimSpace(rest), " ")
				pos := fset.Position(c.Pos())
				for _, name := range strings.Split(names, ",") {
					name = strings.TrimSpace(name)
					if name == "" {
						continue
					}
					entry := s.entry(pos, name)
					// The comment's own line (end-of-line placement) and
					// the next line (standalone placement), each extended
					// to the end of the statement starting there.
					s.cover(pos.Filename, pos.Line, max(pos.Line, ext[pos.Line]), entry)
					s.cover(pos.Filename, pos.Line+1, max(pos.Line+1, ext[pos.Line+1]), entry)
				}
			}
		}
	}
}

func (s *Suppressor) entry(pos token.Position, name string) *allowEntry {
	key := fmt.Sprintf("%s:%d:%s", pos.Filename, pos.Line, name)
	if e, ok := s.byKey[key]; ok {
		return e
	}
	e := &allowEntry{Pos: pos, Name: name}
	s.byKey[key] = e
	s.entries = append(s.entries, e)
	return e
}

func (s *Suppressor) cover(file string, from, to int, e *allowEntry) {
	byLine := s.allowed[file]
	if byLine == nil {
		byLine = make(map[int]map[string]*allowEntry)
		s.allowed[file] = byLine
	}
	for line := from; line <= to; line++ {
		if byLine[line] == nil {
			byLine[line] = make(map[string]*allowEntry)
		}
		if byLine[line][e.Name] == nil {
			byLine[line][e.Name] = e
		}
	}
}

// stmtExtents maps each line on which a statement or declaration starts
// to the last line it spans, so an allow above a wrapped statement covers
// all of it. Compound statements and function declarations stop at their
// body's opening brace: their nested statements get their own extents.
func stmtExtents(fset *token.FileSet, f *ast.File) map[int]int {
	ext := make(map[int]int)
	record := func(n ast.Node, end token.Pos) {
		start := fset.Position(n.Pos()).Line
		stop := fset.Position(end).Line
		if stop > ext[start] {
			ext[start] = stop
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			record(n, n.Body.Lbrace)
		case *ast.ForStmt:
			record(n, n.Body.Lbrace)
		case *ast.RangeStmt:
			record(n, n.Body.Lbrace)
		case *ast.SwitchStmt:
			record(n, n.Body.Lbrace)
		case *ast.TypeSwitchStmt:
			record(n, n.Body.Lbrace)
		case *ast.SelectStmt:
			record(n, n.Body.Lbrace)
		case *ast.FuncDecl:
			if n.Body != nil {
				record(n, n.Body.Lbrace)
			} else {
				record(n, n.End())
			}
		case *ast.BlockStmt, *ast.CaseClause, *ast.CommClause, *ast.LabeledStmt:
			// Containers: their children record themselves.
		case ast.Stmt:
			record(n, n.End())
		case *ast.GenDecl:
			record(n, n.End())
		case *ast.ValueSpec, *ast.TypeSpec, *ast.ImportSpec:
			record(n, n.End())
		}
		return true
	})
	return ext
}

// Suppressed reports whether d is silenced by an allow comment, marking
// the matching entry as used for the -deadallow audit.
func (s *Suppressor) Suppressed(d Diagnostic) bool {
	byLine := s.allowed[d.Pos.Filename]
	if byLine == nil {
		return false
	}
	names := byLine[d.Pos.Line]
	if names == nil {
		return false
	}
	hit := false
	if e := names[d.Analyzer]; e != nil {
		e.used = true
		hit = true
	}
	if e := names["all"]; e != nil {
		e.used = true
		hit = true
	}
	return hit
}

// Stale returns the allow entries that suppressed nothing across every
// Suppressed/Filter call so far, in position order. Meaningful only after
// all analyzers have been filtered through this suppressor.
func (s *Suppressor) Stale() []StaleAllow {
	var out []StaleAllow
	for _, e := range s.entries {
		if !e.used {
			out = append(out, StaleAllow{Pos: e.Pos, Name: e.Name})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos.Filename != out[j].Pos.Filename {
			return out[i].Pos.Filename < out[j].Pos.Filename
		}
		if out[i].Pos.Line != out[j].Pos.Line {
			return out[i].Pos.Line < out[j].Pos.Line
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Filter drops suppressed diagnostics and sorts the rest into the one
// total order every report uses: position, then analyzer, then message.
// Analyzers need not sort their own output.
func (s *Suppressor) Filter(diags []Diagnostic) []Diagnostic {
	out := diags[:0]
	for _, d := range diags {
		if !s.Suppressed(d) {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		if out[i].Analyzer != out[j].Analyzer {
			return out[i].Analyzer < out[j].Analyzer
		}
		return out[i].Message < out[j].Message
	})
	return out
}

// FuncObjOf resolves a call expression's callee to its *types.Func (methods
// and package-level functions; nil for builtins, conversions, and func
// values).
func FuncObjOf(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := Callee(call).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// Callee returns a call's callee, unparenthesized and with explicit type
// arguments stripped: pop[T](x) and q.F[A, B](x) call pop and q.F.
func Callee(call *ast.CallExpr) ast.Expr {
	fun := ast.Unparen(call.Fun)
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		return ast.Unparen(ix.X)
	case *ast.IndexListExpr:
		return ast.Unparen(ix.X)
	}
	return fun
}

// IsMethod reports whether fn is a method named name whose receiver's named
// type (after pointer indirection) is path.typeName.
func IsMethod(fn *types.Func, path, typeName, name string) bool {
	if fn == nil || fn.Name() != name {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == path && obj.Name() == typeName
}
