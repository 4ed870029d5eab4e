package analyze

import (
	"go/ast"
	"strings"
)

// Atomic64 flags calls to sync/atomic's 64-bit functions (AddInt64,
// LoadUint64, CompareAndSwapInt64, ...). They require their operand to be
// 8-byte aligned, which 386 and 32-bit ARM guarantee only for the first
// word of an allocated struct, so a plain int64 field anywhere else panics
// there at the first call: an unaligned AddInt64 once made every core.Run
// panic on 386. The typed atomic.Int64 and atomic.Uint64 are always
// aligned and pass. The //ensemfdet:atomic64-ok escape hatch covers an
// operand whose alignment is guaranteed some other way.
var Atomic64 = &Analyzer{
	Name: "atomic64",
	Run:  runAtomic64,
}

const atomic64OK = "atomic64-ok"

func runAtomic64(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := pass.funcFor(call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" || fn.Signature().Recv() != nil {
				return true
			}
			if name := fn.Name(); (strings.HasSuffix(name, "Int64") || strings.HasSuffix(name, "Uint64")) && !pass.Exempt(call.Pos(), atomic64OK) {
				pass.Reportf(call.Pos(), "atomic.%s needs an 8-byte-aligned operand, which 32-bit platforms do not guarantee; use atomic.Int64 or atomic.Uint64 (or annotate with //ensemfdet:%s <why>)", name, atomic64OK)
			}
			return true
		})
	}
	return nil
}
