package analyzers

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"

	"sendforget/internal/analyzers/framework"
)

// Errdrop forbids silently discarding the error results of transport and
// fault-layer send/receive calls. Those errors are the experiment's ground
// truth: the unified traffic ledger and the loss-rate accounting (PR 2/3)
// depend on every failed send being either recorded as an outcome or
// propagated to a caller that records it. A dropped transport error is an
// unaccounted loss — the empirical loss rate drifts below the configured
// model and the paper's predicted-vs-measured comparison silently skews.
//
// Three discard shapes are reported, resolved through the call graph so
// interface-typed sends (runtime.Sender) count the same as direct ones:
//
//   - an ExprStmt call: `ep.Send(dst, msg)` with the error unbound,
//   - a blank assignment: `_ = ep.Send(dst, msg)`,
//   - a bound-but-dead error: `err := ep.Send(...)` where err is never
//     read again in the enclosing function.
//
// Close is exempt (shutdown-path errors carry no accounting value), as are
// calls under defer/go statements — a deferred or spawned send has no
// caller left to consult the error, and goroleak/lockreach police those
// shapes separately. The transport and fault packages themselves are out
// of scope: their internals are where errors originate, not where they
// must be accounted.
var Errdrop = &framework.Analyzer{
	Name: "errdrop",
	Doc:  "transport/faults send and receive errors must be consulted — recorded as an outcome or propagated, never discarded",
	Run:  runErrdrop,
}

func errdropScoped(path string) bool {
	if strings.HasPrefix(path, "sendforget/internal/transport") ||
		strings.HasPrefix(path, "sendforget/internal/faults") {
		return false
	}
	return fixturePackage(path) ||
		strings.HasPrefix(path, "sendforget/internal/") ||
		strings.HasPrefix(path, "sendforget/cmd/")
}

func runErrdrop(prog *framework.Program, report framework.Report) {
	for _, pkg := range prog.Packages {
		if !errdropScoped(pkg.Path) {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
					checkErrdropBody(prog.CallGraph, pkg.Info, report, fd.Body)
				}
			}
		}
	}
}

// checkErrdropBody scans one function body (including nested literals — a
// closure's error variable lives in the same object space) for the three
// discard shapes.
func checkErrdropBody(graph *framework.CallGraph, info *types.Info, report framework.Report, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt, *ast.GoStmt:
			return false
		case *ast.ExprStmt:
			if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok {
				if name, ok := errdropMonitored(graph, info, call); ok {
					report(call.Pos(),
						"error returned by %s is discarded: record the outcome or propagate it", name)
				}
			}
		case *ast.AssignStmt:
			errdropCheckAssign(graph, info, report, body, n)
		}
		return true
	})
}

// errdropCheckAssign handles `_ = send(...)` and `err := send(...)` where
// err is never read afterwards.
func errdropCheckAssign(graph *framework.CallGraph, info *types.Info, report framework.Report, scope *ast.BlockStmt, as *ast.AssignStmt) {
	if len(as.Rhs) != 1 {
		return
	}
	call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return
	}
	name, ok := errdropMonitored(graph, info, call)
	if !ok {
		return
	}
	idx := errdropErrIndex(info, call)
	if idx < 0 || idx >= len(as.Lhs) {
		return
	}
	id, ok := ast.Unparen(as.Lhs[idx]).(*ast.Ident)
	if !ok {
		// Stored into a field or index expression: treated as escaping to
		// wherever that structure is consulted.
		return
	}
	if id.Name == "_" {
		report(id.Pos(),
			"error returned by %s is assigned to _: record the outcome or propagate it", name)
		return
	}
	obj := info.Defs[id]
	if obj == nil {
		obj = info.Uses[id]
	}
	if obj == nil {
		return
	}
	if !errdropConsulted(info, scope, id, obj) {
		report(id.Pos(),
			"error %s from %s is bound but never consulted: record the outcome or propagate it", id.Name, name)
	}
}

// errdropConsulted reports whether obj is *read* anywhere in scope other
// than at the binding identifier itself. Idents appearing as assignment
// targets are writes, not reads, and do not count; neither does the
// compiler-pacifying `_ = err` discard, which is exactly the shape this
// analyzer exists to reject.
func errdropConsulted(info *types.Info, scope *ast.BlockStmt, binding *ast.Ident, obj types.Object) bool {
	writes := map[*ast.Ident]bool{binding: true}
	ast.Inspect(scope, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok {
			for i, lhs := range as.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				writes[id] = true
				if id.Name == "_" && len(as.Lhs) == len(as.Rhs) {
					if rhs, ok := ast.Unparen(as.Rhs[i]).(*ast.Ident); ok {
						writes[rhs] = true // `_ = err` is a discard, not a read
					}
				}
			}
		}
		return true
	})
	consulted := false
	ast.Inspect(scope, func(n ast.Node) bool {
		if consulted {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok || writes[id] {
			return true
		}
		if info.Uses[id] == obj {
			consulted = true
			return false
		}
		return true
	})
	return consulted
}

// errdropMonitored reports whether the call targets a transport/faults
// function (directly or through CHA-resolved interface dispatch) that
// returns an error, and names it for the diagnostic. Close is exempt. In
// fixture packages, methods and functions named Send/Receive/Recv/SendTo
// stand in for the transport layer.
func errdropMonitored(graph *framework.CallGraph, info *types.Info, call *ast.CallExpr) (string, bool) {
	if errdropErrIndex(info, call) < 0 {
		return "", false
	}
	for _, fn := range graph.Callees(info, call) {
		if fn.Name() == "Close" || fn.Pkg() == nil {
			continue
		}
		path := fn.Pkg().Path()
		monitored := strings.HasPrefix(path, "sendforget/internal/transport") ||
			strings.HasPrefix(path, "sendforget/internal/faults") ||
			(fixturePackage(path) && errdropFixtureName(fn.Name()))
		if monitored {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				return fmt.Sprintf("(%s).%s", recv.Type(), fn.Name()), true
			}
			return fmt.Sprintf("%s.%s", fn.Pkg().Name(), fn.Name()), true
		}
	}
	return "", false
}

func errdropFixtureName(name string) bool {
	switch name {
	case "Send", "Receive", "Recv", "SendTo":
		return true
	}
	return false
}

// errdropErrIndex returns the result index of the call's error value, or -1
// when the call returns no error.
func errdropErrIndex(info *types.Info, call *ast.CallExpr) int {
	tv, ok := info.Types[call]
	if !ok || tv.Type == nil {
		return -1
	}
	errType := types.Universe.Lookup("error").Type()
	if tuple, ok := tv.Type.(*types.Tuple); ok {
		for i := 0; i < tuple.Len(); i++ {
			if types.Identical(tuple.At(i).Type(), errType) {
				return i
			}
		}
		return -1
	}
	if types.Identical(tv.Type, errType) {
		return 0
	}
	return -1
}
