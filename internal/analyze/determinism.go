package analyze

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
)

// Determinism enforces the byte-identical vote contract on the packages the
// detection pipeline flows through: the same graph, config, and seed must
// produce the same bytes on every run, across samplers, shard counts, and
// incremental-vs-cold execution. Three classes of constructs break that
// silently:
//
//   - ranging over a map, whose iteration order is randomized per run —
//     unless the loop provably cannot leak order (it only counts or
//     accumulates with commutative integer ops, or every slice it appends
//     to is sorted later in the same function);
//   - the global math/rand source (rand.Intn and friends), which is seeded
//     per process — all randomness must flow from an explicit, seeded
//     *rand.Rand;
//   - wall-clock reads (time.Now, time.Since), which differ per run.
//
// Findings carry the //ensemfdet:nondeterministic-ok escape hatch for
// deliberately stamped wall-clock fields (ingest timestamps, latency
// metrics) that never feed vote bytes.
var Determinism = &Analyzer{
	Name: "determinism",
	Run:  runDeterminism,
}

const nondetOK = "nondeterministic-ok"

// determinismScope is the set of packages on the vote path: everything that
// runs between an edge batch arriving and a vote vector being emitted.
var determinismScope = regexp.MustCompile(`(^|/)internal/(core|fdet|sampling|bipartite|stream|indexheap|density)$`)

// globalRandFuncs are the math/rand package-level functions backed by the
// process-global source. Constructors (New, NewSource, NewZipf) and *Rand
// methods are fine: they force the caller to thread an explicit seed.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Read": true, "Seed": true,
}

func runDeterminism(pass *Pass) error {
	if !determinismScope.MatchString(pass.Path) {
		return nil
	}
	for _, f := range pass.Files {
		if pass.isTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				pass.checkMapRange(n)
			case *ast.SelectorExpr:
				pass.checkClockAndRand(n)
			}
			return true
		})
	}
	return nil
}

// checkClockAndRand flags any reference (call or value) to time.Now,
// time.Since, or a global-source math/rand function.
func (p *Pass) checkClockAndRand(sel *ast.SelectorExpr) {
	fn, ok := p.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Type().(*types.Signature).Recv() != nil {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		if fn.Name() == "Now" || fn.Name() == "Since" {
			if !p.Exempt(sel.Pos(), nondetOK) {
				p.Reportf(sel.Pos(), "time.%s on the vote path: wall-clock reads are nondeterministic; thread the time in, or annotate a stamped field with //ensemfdet:%s <why>", fn.Name(), nondetOK)
			}
		}
	case "math/rand", "math/rand/v2":
		if globalRandFuncs[fn.Name()] {
			if !p.Exempt(sel.Pos(), nondetOK) {
				p.Reportf(sel.Pos(), "global math/rand.%s on the vote path: randomness must come from an explicit seeded *rand.Rand", fn.Name())
			}
		}
	}
}

// checkMapRange flags ranging over a map unless the loop body is provably
// order-insensitive.
func (p *Pass) checkMapRange(rng *ast.RangeStmt) {
	if rng.X == nil {
		return
	}
	t := p.TypesInfo.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		return
	}
	if p.Exempt(rng.Pos(), nondetOK) {
		return
	}
	if p.orderInsensitive(rng) {
		return
	}
	p.Reportf(rng.Pos(), "range over map on the vote path: iteration order is nondeterministic; collect and sort, or annotate with //ensemfdet:%s <why>", nondetOK)
}

// orderInsensitive reports whether a map-range loop cannot leak iteration
// order: every statement in its body is a commutative integer accumulation
// (x++, x--, x += k, ...), an append to a local slice that is sorted later
// in the same function, a guard (if/continue), or a no-op. Anything else —
// calls, sends, plain assignments, float accumulation — is assumed to
// observe order.
func (p *Pass) orderInsensitive(rng *ast.RangeStmt) bool {
	var appended []*ast.Ident
	if !p.orderFreeStmts(rng.Body.List, &appended) {
		return false
	}
	if len(appended) == 0 {
		return true
	}
	body := p.enclosingFuncBody(rng.Pos())
	if body == nil {
		return false
	}
	for _, id := range appended {
		if !p.sortedAfter(body, id, rng.End()) {
			return false
		}
	}
	return true
}

func (p *Pass) orderFreeStmts(stmts []ast.Stmt, appended *[]*ast.Ident) bool {
	for _, s := range stmts {
		if !p.orderFreeStmt(s, appended) {
			return false
		}
	}
	return true
}

func (p *Pass) orderFreeStmt(s ast.Stmt, appended *[]*ast.Ident) bool {
	switch s := s.(type) {
	case nil, *ast.EmptyStmt:
		return true
	case *ast.BranchStmt:
		return s.Tok == token.CONTINUE
	case *ast.BlockStmt:
		return p.orderFreeStmts(s.List, appended)
	case *ast.IfStmt:
		if containsCall(s.Cond) || s.Init != nil {
			return false
		}
		if !p.orderFreeStmts(s.Body.List, appended) {
			return false
		}
		return s.Else == nil || p.orderFreeStmt(s.Else, appended)
	case *ast.IncDecStmt:
		return p.integerTyped(s.X)
	case *ast.AssignStmt:
		switch s.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
			// Commutative only over integers: float rounding observes order.
			return len(s.Lhs) == 1 && p.integerTyped(s.Lhs[0]) && !containsCall(s.Rhs[0])
		case token.ASSIGN:
			// x = append(x, ...) with x a plain local; order is laundered
			// only if x is later sorted (checked by the caller).
			if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
				return false
			}
			id, ok := s.Lhs[0].(*ast.Ident)
			if !ok {
				return false
			}
			call, ok := s.Rhs[0].(*ast.CallExpr)
			if !ok || !isBuiltin(p, call, "append") {
				return false
			}
			if first, ok := ast.Unparen(call.Args[0]).(*ast.Ident); !ok || p.TypesInfo.Uses[first] != p.objOf(id) {
				return false
			}
			*appended = append(*appended, id)
			return true
		}
		return false
	}
	return false
}

// sortedAfter reports whether a sort call over id appears after pos in body.
func (p *Pass) sortedAfter(body *ast.BlockStmt, id *ast.Ident, pos token.Pos) bool {
	obj := p.objOf(id)
	if obj == nil {
		return false
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos || found || len(call.Args) == 0 {
			return !found
		}
		fn := p.funcFor(call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		pkg, name := fn.Pkg().Path(), fn.Name()
		isSort := (pkg == "sort" && (name == "Ints" || name == "Strings" || name == "Float64s" ||
			name == "Slice" || name == "SliceStable" || name == "Sort" || name == "Stable")) ||
			(pkg == "slices" && (name == "Sort" || name == "SortFunc" || name == "SortStableFunc"))
		if !isSort {
			return true
		}
		if arg, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok && p.TypesInfo.Uses[arg] == obj {
			found = true
		}
		return !found
	})
	return found
}

// objOf resolves an identifier to its object via either Defs or Uses.
func (p *Pass) objOf(id *ast.Ident) types.Object {
	if o := p.TypesInfo.Defs[id]; o != nil {
		return o
	}
	return p.TypesInfo.Uses[id]
}

func (p *Pass) integerTyped(e ast.Expr) bool {
	t := p.TypesInfo.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

func containsCall(e ast.Expr) bool {
	if e == nil {
		return false
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.CallExpr); ok {
			found = true
		}
		return !found
	})
	return found
}

func isBuiltin(p *Pass, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, isBuiltin := p.TypesInfo.Uses[id].(*types.Builtin)
	return isBuiltin
}
