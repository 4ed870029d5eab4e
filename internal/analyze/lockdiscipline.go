package analyze

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// LockDiscipline enforces the repo's *Locked naming contract: a function
// whose name ends in "Locked" documents that its caller must hold the
// corresponding mutex. A call to such a function is accepted only when the
// caller
//
//   - is itself named *Locked (the obligation propagates outward), or
//   - acquires a lock on a dominating path: a mu.Lock()/mu.RLock() call
//     earlier in the same function, in a block enclosing the call site,
//     with no dominating Unlock in between. When the callee is a method,
//     the lock must hang off the same receiver variable.
//
// It also enforces the shard-lock re-entrancy rule: while a shard lock (a
// mutex reached through an index expression, e.g. g.shards[i].mu) is held,
// calling an exported method on the enclosing receiver is flagged — exported
// methods take top-level locks and re-entering through one under a shard
// lock is a lock-order inversion waiting to deadlock.
//
// The //ensemfdet:locked-ok escape hatch suppresses a finding where the
// lock provably arrives another way (e.g. a callback invoked under lock).
var LockDiscipline = &Analyzer{
	Name: "lockdiscipline",
	Run:  runLockDiscipline,
}

const lockedOK = "locked-ok"

func runLockDiscipline(pass *Pass) error {
	for _, f := range pass.Files {
		if pass.isTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			pass.checkLockedCall(call)
			pass.checkShardReentry(call)
			return true
		})
	}
	return nil
}

// checkLockedCall validates one call of a *Locked function.
func (p *Pass) checkLockedCall(call *ast.CallExpr) {
	fn := p.funcFor(call)
	if fn == nil || !strings.HasSuffix(fn.Name(), "Locked") {
		return
	}
	// A *Locked caller inherits the obligation; its own callers are checked.
	if fd := p.enclosingFuncDecl(call.Pos()); fd != nil && strings.HasSuffix(fd.Name.Name, "Locked") {
		return
	}
	// The callee's receiver variable at this call site, when the call is
	// recv.fooLocked(): the lock must hang off the same variable.
	var recv types.Object
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
			recv = p.TypesInfo.Uses[id]
		}
	}
	body := p.enclosingFuncBody(call.Pos())
	if body != nil && p.lockHeldAt(body, call.Pos(), recv) {
		return
	}
	if p.Exempt(call.Pos(), lockedOK) {
		return
	}
	p.Reportf(call.Pos(), "%s called without its mutex held: no dominating Lock/RLock in the caller (rename the caller *Locked, lock first, or annotate with //ensemfdet:%s <why>)", fn.Name(), lockedOK)
}

// mutexOp describes one Lock/RLock/Unlock/RUnlock call found in a body.
type mutexOp struct {
	pos      token.Pos
	acquire  bool
	deferred bool
	base     string       // printed receiver chain, e.g. "e.mu" or "sh.mu"
	root     types.Object // leading identifier's object, e.g. e or sh
	indexed  bool         // receiver chain passes through an index expression
}

// mutexOps collects every mutex operation in body, in source order.
func (p *Pass) mutexOps(body *ast.BlockStmt) []mutexOp {
	var ops []mutexOp
	deferredCalls := map[*ast.CallExpr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		deferred := false
		var call *ast.CallExpr
		switch n := n.(type) {
		case *ast.DeferStmt:
			call, deferred = n.Call, true
			deferredCalls[call] = true
		case *ast.CallExpr:
			if deferredCalls[n] {
				return true // already recorded via its DeferStmt
			}
			call = n
		default:
			return true
		}
		op, ok := p.mutexOpOf(call, deferred)
		if ok {
			ops = append(ops, op)
		}
		return true
	})
	return ops
}

// mutexOpOf decodes a call as a sync.Mutex/RWMutex (R)Lock/(R)Unlock.
func (p *Pass) mutexOpOf(call *ast.CallExpr, deferred bool) (mutexOp, bool) {
	fn := p.funcFor(call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return mutexOp{}, false
	}
	var acquire bool
	switch fn.Name() {
	case "Lock", "RLock":
		acquire = true
	case "Unlock", "RUnlock":
	default:
		return mutexOp{}, false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return mutexOp{}, false
	}
	op := mutexOp{pos: call.Pos(), acquire: acquire, deferred: deferred, base: types.ExprString(sel.X)}
	for x := ast.Unparen(sel.X); ; {
		switch e := x.(type) {
		case *ast.Ident:
			op.root = p.TypesInfo.Uses[e]
			return op, true
		case *ast.SelectorExpr:
			x = ast.Unparen(e.X)
		case *ast.IndexExpr:
			op.indexed = true
			x = ast.Unparen(e.X)
		case *ast.StarExpr:
			x = ast.Unparen(e.X)
		default:
			return op, true
		}
	}
}

// lockHeldAt reports whether some mutex is provably held at pos: an acquire
// earlier in a block that encloses pos, with no later non-deferred release
// of the same mutex that also dominates pos. When recv is non-nil the
// acquire's receiver chain must be rooted at the same variable (or at a
// variable whose shard-projection derives from it — sh := &g.shards[i]
// still guards g's *Locked helpers, so any surviving acquire counts when
// the roots differ but the caller has no other candidates... we keep it
// strict: same root, or a root the receiver cannot be determined for).
func (p *Pass) lockHeldAt(body *ast.BlockStmt, pos token.Pos, recv types.Object) bool {
	ops := p.mutexOps(body)
	for _, acq := range ops {
		if !acq.acquire || acq.pos >= pos || acq.deferred {
			continue
		}
		if !p.dominates(body, acq.pos, pos) {
			continue
		}
		if recv != nil && acq.root != nil && acq.root != recv && !p.derivedFrom(body, acq.root, recv) {
			continue
		}
		released := false
		for _, rel := range ops {
			if rel.acquire || rel.deferred || rel.base != acq.base {
				continue
			}
			if rel.pos > acq.pos && rel.pos < pos && p.dominates(body, rel.pos, pos) {
				released = true
				break
			}
		}
		if !released {
			return true
		}
	}
	return false
}

// dominates approximates "every path to pos passes through opPos": the
// innermost block statement containing opPos must also contain pos. An
// operation inside a sibling branch (an if-arm the control flow may skip)
// does not dominate statements after the branch.
func (p *Pass) dominates(body *ast.BlockStmt, opPos, pos token.Pos) bool {
	blk := body
	for {
		var inner *ast.BlockStmt
		for _, s := range blk.List {
			if s.Pos() <= opPos && opPos < s.End() {
				found := false
				ast.Inspect(s, func(n ast.Node) bool {
					b, ok := n.(*ast.BlockStmt)
					if ok && !found && b.Pos() <= opPos && opPos < b.End() {
						inner, found = b, true
					}
					return !found
				})
				break
			}
		}
		if inner == nil || inner == blk {
			return blk.Pos() <= pos && pos < blk.End()
		}
		blk = inner
	}
}

// derivedFrom reports whether variable root was initialized from an
// expression mentioning recv in this body (sh := &g.shards[i] makes sh
// derived from g), which lets a shard-entry lock guard the outer receiver's
// *Locked helpers.
func (p *Pass) derivedFrom(body *ast.BlockStmt, root, recv types.Object) bool {
	derived := false
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || derived {
			return !derived
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || p.objOf(id) != root || i >= len(as.Rhs) {
				continue
			}
			ast.Inspect(as.Rhs[i], func(m ast.Node) bool {
				if rid, ok := m.(*ast.Ident); ok && p.TypesInfo.Uses[rid] == recv {
					derived = true
				}
				return !derived
			})
		}
		return !derived
	})
	return derived
}

// checkShardReentry flags exported same-receiver method calls made while a
// shard lock (indexed mutex) is held.
func (p *Pass) checkShardReentry(call *ast.CallExpr) {
	fn := p.funcFor(call)
	if fn == nil || !fn.Exported() || fn.Type().(*types.Signature).Recv() == nil {
		return
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return
	}
	callRecv := p.TypesInfo.Uses[id]
	if callRecv == nil {
		return
	}
	body := p.enclosingFuncBody(call.Pos())
	if body == nil {
		return
	}
	for _, acq := range p.mutexOps(body) {
		if !acq.acquire || acq.pos >= call.Pos() || !acq.indexed && !p.shardDerived(body, acq.root) {
			continue
		}
		if !p.dominates(body, acq.pos, call.Pos()) {
			continue
		}
		released := false
		for _, rel := range p.mutexOps(body) {
			if !rel.acquire && !rel.deferred && rel.base == acq.base &&
				rel.pos > acq.pos && rel.pos < call.Pos() && p.dominates(body, rel.pos, call.Pos()) {
				released = true
				break
			}
		}
		if released || p.Exempt(call.Pos(), lockedOK) {
			continue
		}
		p.Reportf(call.Pos(), "exported method %s called while shard lock %s is held: exported methods may re-acquire top-level locks (hoist the call past the unlock, or annotate with //ensemfdet:%s <why>)", fn.Name(), acq.base, lockedOK)
		return
	}
}

// shardDerived reports whether root was initialized through an index
// expression (sh := &g.shards[i]), making its mutex a shard lock even
// though the lock call itself has no index syntax.
func (p *Pass) shardDerived(body *ast.BlockStmt, root types.Object) bool {
	if root == nil {
		return false
	}
	derived := false
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || derived {
			return !derived
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || p.objOf(id) != root || i >= len(as.Rhs) {
				continue
			}
			ast.Inspect(as.Rhs[i], func(m ast.Node) bool {
				if _, ok := m.(*ast.IndexExpr); ok {
					derived = true
				}
				return !derived
			})
		}
		return !derived
	})
	return derived
}
