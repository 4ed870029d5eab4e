package analyze

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// Durability enforces the WAL/snapshot publication protocol in
// internal/persist. Every durable artifact lands tmp → fsync → rename →
// dir-fsync; anything else can surface a torn or vanished file after a
// crash. Concretely:
//
//   - os.Rename must be preceded (in the same function) by a File.Sync on
//     the temp file, and followed by a directory fsync (syncDir or a
//     Sync on an opened directory) — a rename made durable out of order
//     can publish a name whose bytes the kernel never flushed;
//   - os.Remove / os.RemoveAll / os.Truncate on WAL-segment or snapshot
//     paths are destructive and restricted to blessed helpers: deleting
//     a ".tmp" sibling created in the same function is always fine, any
//     other deletion needs a //ensemfdet:durability-ok justification on
//     the call or the enclosing helper.
var Durability = &Analyzer{
	Name: "durability",
	Run:  runDurability,
}

const durabilityOK = "durability-ok"

var durabilityScope = regexp.MustCompile(`(^|/)internal/persist$`)

func runDurability(pass *Pass) error {
	if !durabilityScope.MatchString(pass.Path) {
		return nil
	}
	for _, f := range pass.Files {
		if pass.isTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := pass.funcFor(call)
			switch {
			case isPkgFunc(fn, "os", "Rename"):
				pass.checkRename(call)
			case isPkgFunc(fn, "os", "Remove") || isPkgFunc(fn, "os", "RemoveAll") || isPkgFunc(fn, "os", "Truncate"):
				pass.checkDeletion(call, fn.Name())
			}
			return true
		})
	}
	return nil
}

// checkRename validates fsync ordering around one os.Rename.
func (p *Pass) checkRename(call *ast.CallExpr) {
	if p.Exempt(call.Pos(), durabilityOK) {
		return
	}
	body := p.enclosingFuncBody(call.Pos())
	if body == nil {
		return
	}
	syncBefore, dirSyncAfter := false, false
	ast.Inspect(body, func(n ast.Node) bool {
		c, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := p.funcFor(c)
		if fn == nil {
			return true
		}
		if c.Pos() < call.Pos() && p.isFileSync(fn) {
			syncBefore = true
		}
		if c.Pos() > call.Pos() && (p.isFileSync(fn) || strings.Contains(strings.ToLower(fn.Name()), "syncdir")) {
			dirSyncAfter = true
		}
		return true
	})
	if !syncBefore {
		p.Reportf(call.Pos(), "os.Rename not preceded by a File.Sync in this function: the renamed file's bytes may not be durable (sync the temp file first, or annotate with //ensemfdet:%s <why>)", durabilityOK)
	}
	if !dirSyncAfter {
		p.Reportf(call.Pos(), "os.Rename not followed by a directory fsync in this function: the new name may vanish across a crash (call syncDir after, or annotate with //ensemfdet:%s <why>)", durabilityOK)
	}
}

// isFileSync reports whether fn is (*os.File).Sync.
func (p *Pass) isFileSync(fn *types.Func) bool {
	if fn.Name() != "Sync" || fn.Pkg() == nil || fn.Pkg().Path() != "os" {
		return false
	}
	return fn.Type().(*types.Signature).Recv() != nil
}

// checkDeletion validates one destructive os call.
func (p *Pass) checkDeletion(call *ast.CallExpr, name string) {
	if len(call.Args) > 0 && p.tmpCleanup(call) {
		return
	}
	if p.Exempt(call.Pos(), durabilityOK) {
		return
	}
	p.Reportf(call.Pos(), "os.%s outside a blessed helper: deleting or truncating durable state needs a //ensemfdet:%s <why> justification (tmp-sibling cleanup is exempt automatically)", name, durabilityOK)
}

// tmpCleanup recognizes the temp-sibling cleanup idiom: the deleted path is
// a local variable assigned from an expression mentioning a ".tmp" string
// literal in the same function (tmp := path + ".tmp"; defer os.Remove(tmp)).
func (p *Pass) tmpCleanup(call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		return false
	}
	obj := p.objOf(id)
	if obj == nil {
		return false
	}
	body := p.enclosingFuncBody(call.Pos())
	if body == nil {
		return false
	}
	isTmp := false
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || isTmp {
			return !isTmp
		}
		for i, lhs := range as.Lhs {
			lid, ok := lhs.(*ast.Ident)
			if !ok || p.objOf(lid) != obj || i >= len(as.Rhs) {
				continue
			}
			ast.Inspect(as.Rhs[i], func(m ast.Node) bool {
				if lit, ok := m.(*ast.BasicLit); ok && lit.Kind == token.STRING && strings.Contains(lit.Value, ".tmp") {
					isTmp = true
				}
				return !isTmp
			})
		}
		return !isTmp
	})
	return isTmp
}
