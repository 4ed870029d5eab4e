package analyze

import (
	"go/ast"
	"go/token"
	"go/types"
)

// SentErr flags sentinel errors compared with == or != (including switch
// cases over an error tag) instead of errors.Is. The repo's failure
// surfaces wrap sentinels with context as they cross layers
// (fmt.Errorf("...: %w", ErrFenced)), so an identity comparison silently
// stops matching the moment a call site adds context — exactly the class
// of bug that turns a fenced primary's 409 into a generic 500.
//
// A sentinel is a package-level error variable whose name starts with
// "Err", plus the stdlib's pre-convention trio io.EOF, context.Canceled,
// and context.DeadlineExceeded. Comparisons to nil are fine. The
// //ensemfdet:senterr-ok escape hatch covers the rare intentional identity
// check.
var SentErr = &Analyzer{
	Name: "senterr",
	Run:  runSentErr,
}

const senterrOK = "senterr-ok"

func runSentErr(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if n.Op != token.EQL && n.Op != token.NEQ {
					return true
				}
				for _, side := range []ast.Expr{n.X, n.Y} {
					if name, ok := pass.sentinelError(side); ok {
						if !pass.Exempt(n.Pos(), senterrOK) {
							pass.Reportf(n.Pos(), "sentinel error %s compared with %s: wrapped errors will not match; use errors.Is (or annotate with //ensemfdet:%s <why>)", name, n.Op, senterrOK)
						}
						return true
					}
				}
			case *ast.SwitchStmt:
				if n.Tag == nil {
					return true
				}
				t := pass.TypesInfo.TypeOf(n.Tag)
				if t == nil || !isErrorType(t) {
					return true
				}
				for _, c := range n.Body.List {
					cc, ok := c.(*ast.CaseClause)
					if !ok {
						continue
					}
					for _, e := range cc.List {
						if name, ok := pass.sentinelError(e); ok && !pass.Exempt(cc.Pos(), senterrOK) {
							pass.Reportf(e.Pos(), "sentinel error %s in a switch case compares by identity: wrapped errors will not match; use errors.Is (or annotate with //ensemfdet:%s <why>)", name, senterrOK)
						}
					}
				}
			}
			return true
		})
	}
	return nil
}

// sentinelError reports whether e denotes a sentinel error variable.
func (p *Pass) sentinelError(e ast.Expr) (string, bool) {
	var id *ast.Ident
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return "", false
	}
	v, ok := p.TypesInfo.Uses[id].(*types.Var)
	if !ok || v.Pkg() == nil || !isErrorType(v.Type()) {
		return "", false
	}
	// Package-level only: a local "errFoo" is this function's own value and
	// identity is exact for it.
	if v.Parent() != v.Pkg().Scope() {
		return "", false
	}
	name := v.Name()
	qualified := v.Pkg().Name() + "." + name
	if len(name) >= 3 && name[:3] == "Err" {
		return qualified, true
	}
	switch {
	case v.Pkg().Path() == "io" && name == "EOF",
		v.Pkg().Path() == "context" && (name == "Canceled" || name == "DeadlineExceeded"):
		return qualified, true
	}
	return "", false
}

func isErrorType(t types.Type) bool {
	iface, ok := t.Underlying().(*types.Interface)
	if !ok {
		return false
	}
	return types.Identical(t, types.Universe.Lookup("error").Type()) || iface.NumMethods() == 1 && iface.Method(0).Name() == "Error"
}
