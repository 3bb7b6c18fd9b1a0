package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"sendforget/internal/analyzers/framework"
)

// Goroleak requires every goroutine launched in the concurrent runtime and
// the command binaries to be stoppable and accounted for. Two properties
// are checked on each `go` statement, interprocedurally where the body
// calls helpers:
//
//  1. Termination: the goroutine's CFG must be able to reach its exit — a
//     `for { work() }` loop with no return is unstoppable by construction.
//     Gossip loops pass because they end when their stop channel closes
//     (runtime.Pacer.Next reports false).
//  2. Shutdown/synchronization: the body (or a function it transitively
//     calls) must reference one of the sanctioned mechanisms — a channel
//     receive (done/stop channel, `<-ctx.Done()`, range over a work
//     channel, select arm) or a sync.WaitGroup.Done so a Stop path can
//     Wait for it.
//
// Why this is an invariant and not a style preference: runtime.Cluster.Stop
// documents "ends the loops Start launched and waits for them", and tests
// call Stop between phases — a leaked gossip loop keeps ticking into the
// network after the cluster stopped, and a leaked loop over a departed
// node's work breaks the paper's leave semantics (a leaver stops
// participating, Section 5) and shows up as phantom sends in the unified
// traffic ledger. PR 3's churn race was exactly a lifecycle bug of this
// family: state mutated by a goroutine that outlived the membership change.
//
// Goroutines launched through dynamic function values cannot be resolved
// statically and are skipped; `go` on a named function is followed through
// the call graph to its source.
//
// Scope: internal/runtime and cmd/... (plus fixture packages). The
// sequential packages spawn no goroutines by design — detrand and the
// determinism rules keep it that way.
var Goroleak = &framework.Analyzer{
	Name: "goroleak",
	Doc:  "every goroutine in the runtime and commands needs a termination path and a shutdown/sync mechanism (done channel, context, or WaitGroup)",
	Run:  runGoroleak,
}

func goroleakScoped(path string) bool {
	return fixturePackage(path) ||
		strings.HasPrefix(path, "sendforget/internal/runtime") ||
		strings.HasPrefix(path, "sendforget/internal/mgmt") ||
		strings.HasPrefix(path, "sendforget/cmd/")
}

func runGoroleak(prog *framework.Program, report framework.Report) {
	for _, pkg := range prog.Packages {
		if !goroleakScoped(pkg.Path) {
			continue
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if gs, ok := n.(*ast.GoStmt); ok {
					checkGoStmt(prog, pkg, report, gs)
				}
				return true
			})
		}
	}
}

func checkGoStmt(prog *framework.Program, pkg *framework.Package, report framework.Report, gs *ast.GoStmt) {
	body, in, ok := prog.CallGraph.GoroutineEntry(pkg, gs)
	if !ok {
		return // dynamic target: nothing to inspect statically
	}
	cfg := framework.BuildCFG(body)
	if !cfg.ExitReachable() {
		report(gs.Pos(),
			"goroutine cannot terminate: no path reaches a return — add a stop signal (done channel, context) to its loop")
		return
	}
	if !hasShutdownSignal(prog, in, body, map[*types.Func]bool{}) {
		report(gs.Pos(),
			"goroutine has no shutdown or synchronization mechanism (done-channel receive, context.Done, or WaitGroup.Done): Stop paths cannot reach or await it")
	}
}

// hasShutdownSignal reports whether the body — or any source function it
// transitively calls — contains a channel receive or a WaitGroup.Done
// call. Function literals inside the body count (the deferred
// `func() { <-sem }()` idiom); further `go` statements do not: a goroutine
// does not shut down by spawning another.
func hasShutdownSignal(prog *framework.Program, pkg *framework.Package, body *ast.BlockStmt, seen map[*types.Func]bool) bool {
	found := false
	var calls []*ast.CallExpr
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.GoStmt:
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = true
				return false
			}
		case *ast.RangeStmt:
			if t := pkg.Info.TypeOf(n.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					found = true
					return false
				}
			}
		case *ast.CallExpr:
			if isShutdownCall(pkg.Info, n) {
				found = true
				return false
			}
			calls = append(calls, n)
		}
		return true
	})
	if found {
		return true
	}
	for _, call := range calls {
		for _, callee := range prog.CallGraph.Callees(pkg.Info, call) {
			if seen[callee] {
				continue
			}
			seen[callee] = true
			src := prog.CallGraph.SourceOf(callee)
			if src == nil || src.Decl.Body == nil {
				continue
			}
			if hasShutdownSignal(prog, src.Pkg, src.Decl.Body, seen) {
				return true
			}
		}
	}
	return false
}

// isShutdownCall matches sync.WaitGroup.Done. A context's Done needs no
// case of its own: it returns a channel, and the receive is the signal.
func isShutdownCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Done" {
		return false
	}
	selection, found := info.Selections[sel]
	return found && framework.IsSyncNamed(selection.Recv(), "WaitGroup")
}
