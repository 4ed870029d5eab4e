// Package analyze is a suite of static analyzers that enforce the repo's
// cross-cutting invariants — vote-path determinism, *Locked call discipline,
// WAL/snapshot durability ordering, sentinel-error comparison hygiene, and
// 32-bit-safe 64-bit atomics — at compile time instead of hoping a runtime
// test gets lucky.
//
// The framework mirrors the shape of golang.org/x/tools/go/analysis (an
// Analyzer runs over one type-checked package via a Pass and reports
// Diagnostics) but is built on the standard library only, so the module
// stays dependency-free. Swapping a future x/tools dependency in is a
// mechanical rename.
//
// Every analyzer honors a per-finding escape hatch: a line comment of the
// form
//
//	//ensemfdet:<directive> <justification>
//
// on the flagged line, the line above it, or in the enclosing function's doc
// comment suppresses the finding. The justification is mandatory — a bare
// directive does not exempt, so each suppression records *why* the invariant
// does not apply.
package analyze

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer describes one analysis and how to run it.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and on the command line.
	Name string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// A Pass provides one analyzer run with a single type-checked package and a
// sink for its findings.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's syntax trees, parsed with comments.
	Files []*ast.File
	// Path is the canonical import path ("internal/stream" relative to the
	// module for in-repo packages; fixture packages use their testdata-
	// relative path).
	Path      string
	TypesInfo *types.Info
	// Report receives each finding.
	Report func(Diagnostic)

	directives map[*ast.File]map[int][]directive // lazily built per file
}

// A Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// Reportf reports a formatted finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...), Analyzer: p.Analyzer.Name})
}

// directive is one parsed //ensemfdet: annotation.
type directive struct {
	name          string
	justification string
}

const directivePrefix = "//ensemfdet:"

// parseDirective decodes a comment into a directive. ok is false for
// ordinary comments.
func parseDirective(text string) (directive, bool) {
	if !strings.HasPrefix(text, directivePrefix) {
		return directive{}, false
	}
	rest := strings.TrimPrefix(text, directivePrefix)
	name, justification, _ := strings.Cut(rest, " ")
	return directive{name: name, justification: strings.TrimSpace(justification)}, true
}

// fileDirectives indexes f's //ensemfdet: comments by line.
func (p *Pass) fileDirectives(f *ast.File) map[int][]directive {
	if p.directives == nil {
		p.directives = make(map[*ast.File]map[int][]directive)
	}
	if m, ok := p.directives[f]; ok {
		return m
	}
	m := make(map[int][]directive)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if d, ok := parseDirective(c.Text); ok {
				m[p.Fset.Position(c.Pos()).Line] = append(m[p.Fset.Position(c.Pos()).Line], d)
			}
		}
	}
	p.directives[f] = m
	return m
}

// Exempt reports whether pos carries a justified //ensemfdet:<name>
// directive: on its own line, on the line above, or in the doc comment of
// the enclosing function declaration. A directive with an empty
// justification never exempts.
func (p *Pass) Exempt(pos token.Pos, name string) bool {
	f := p.fileFor(pos)
	if f == nil {
		return false
	}
	line := p.Fset.Position(pos).Line
	for _, ds := range [][]directive{p.fileDirectives(f)[line], p.fileDirectives(f)[line-1]} {
		for _, d := range ds {
			if d.name == name && d.justification != "" {
				return true
			}
		}
	}
	if fd := p.enclosingFuncDecl(pos); fd != nil && fd.Doc != nil {
		for _, c := range fd.Doc.List {
			if d, ok := parseDirective(c.Text); ok && d.name == name && d.justification != "" {
				return true
			}
		}
	}
	return false
}

// fileFor returns the syntax tree containing pos.
func (p *Pass) fileFor(pos token.Pos) *ast.File {
	for _, f := range p.Files {
		if f.FileStart <= pos && pos < f.FileEnd {
			return f
		}
	}
	return nil
}

// enclosingFuncDecl returns the function declaration containing pos, if any.
func (p *Pass) enclosingFuncDecl(pos token.Pos) *ast.FuncDecl {
	f := p.fileFor(pos)
	if f == nil {
		return nil
	}
	for _, decl := range f.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Pos() <= pos && pos < fd.End() {
			return fd
		}
	}
	return nil
}

// enclosingFuncBody returns the body of the innermost function (declaration
// or literal) containing pos.
func (p *Pass) enclosingFuncBody(pos token.Pos) *ast.BlockStmt {
	f := p.fileFor(pos)
	if f == nil {
		return nil
	}
	var body *ast.BlockStmt
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil || pos < n.Pos() || n.End() <= pos {
			return n == f // keep scanning siblings at the top, prune elsewhere
		}
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body != nil {
				body = fn.Body
			}
		case *ast.FuncLit:
			body = fn.Body
		}
		return true
	})
	return body
}

// isTestFile reports whether pos lies in a _test.go file. The determinism,
// lock-discipline, and durability analyzers skip tests: tests exercise
// wall clocks, private state, and raw file surgery on purpose.
func (p *Pass) isTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// funcFor resolves the called function or method, unwrapping parentheses.
// It returns nil for calls through function-typed variables, conversions,
// and builtins.
func (p *Pass) funcFor(call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	var id *ast.Ident
	switch fn := fun.(type) {
	case *ast.Ident:
		id = fn
	case *ast.SelectorExpr:
		id = fn.Sel
	default:
		return nil
	}
	f, _ := p.TypesInfo.Uses[id].(*types.Func)
	return f
}

// isPkgFunc reports whether f is the package-level function pkgPath.name.
func isPkgFunc(f *types.Func, pkgPath, name string) bool {
	return f != nil && f.Pkg() != nil && f.Pkg().Path() == pkgPath && f.Name() == name &&
		f.Type().(*types.Signature).Recv() == nil
}

// All returns the full analyzer suite in a stable order.
func All() []*Analyzer {
	return []*Analyzer{Determinism, LockDiscipline, Durability, SentErr, Atomic64}
}
