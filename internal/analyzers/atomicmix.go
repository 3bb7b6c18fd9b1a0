package analyzers

import (
	"go/ast"
	"go/types"

	"sendforget/internal/analyzers/framework"
)

// Atomicmix reports every call to a package-level sync/atomic function
// (atomic.AddInt64(&x.n, 1), atomic.LoadUint32(&v), ...). A word reached
// through that API is an ordinary int64 to the compiler, so nothing stops
// a plain read or write of it elsewhere — a data race even when each side
// looks locally innocent: the plain access can tear, be reordered, or read
// a stale value, and -race only catches the schedules it happens to see.
//
// The repo's rule is the pattern runtime.Node.SetPeriod (PR 8) uses: a
// *typed* atomic (atomic.Int64) for the shared word, which makes the
// atomic/plain mix a compile error instead of a finding. No package uses
// the function API today; this analyzer keeps it from creeping back in
// during a refactor ("only one writer exists, a plain int64 will do").
// Methods of the typed atomics live in sync/atomic too but have a receiver,
// which excludes them.
var Atomicmix = &framework.Analyzer{
	Name: "atomicmix",
	Doc:  "no package-level sync/atomic function calls: shared words are typed atomics, so atomic and plain access cannot mix",
	Run:  runAtomicmix,
}

func runAtomicmix(pass *framework.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if ok && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" &&
				fn.Type().(*types.Signature).Recv() == nil {
				pass.Reportf(call.Pos(),
					"atomic.%s(%s, ...) leaves every plain access to that word a silent race: declare it as a typed atomic (atomic.Int64, atomic.Pointer[T], ...)",
					fn.Name(), types.ExprString(call.Args[0]))
			}
			return true
		})
	}
	return nil
}
