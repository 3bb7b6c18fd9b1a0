package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"sendforget/internal/analyzers/framework"
)

// Lockreach forbids blocking while a sync.Mutex or sync.RWMutex is held: a
// channel send or receive, a select without default, a range over a channel,
// a call to a method named Send (the transport.Network / transport.Endpoint
// / runtime.Sender surface), time.Sleep, sync.WaitGroup.Wait or
// sync.Cond.Wait — written in the locked function itself or buried any
// number of helper calls deep:
//
//	n.mu.Lock()
//	n.ch <- v // flagged: direct operation under the lock
//
//	n.mu.Lock()
//	n.flush() // flagged too: flush does n.ch <- v
//
// This is the "replies are sent outside the node lock" rule PR 2
// established for the concurrent runtime: a node that sends while holding
// its own lock can deadlock against a peer doing the same (each send runs
// the receiver's handler, which takes the receiver's lock), and a blocking
// call under a node or cluster mutex stalls every goroutine that gossips
// through it. The second shape is the one a helper extraction silently
// reintroduces.
//
// Mechanics: a program-wide summary pass computes, for every source
// function, whether its body can block (one of the operations above, or a
// Lock/RLock acquisition — taking a second mutex under the first is the
// lock-ordering deadlock) or calls — statically or through a CHA-resolved
// interface — a function that can. Then each function body is replayed
// under the framework's held-lock dataflow with the MayHold meet (Lock
// adds, Unlock removes, a deferred Unlock holds to function exit, branches
// join by union), and every blocking operation or summarized call reached
// with a nonempty held set is reported, the call with the blocking reason
// one level down the chain. Goroutine bodies and non-invoked function
// literals do not count toward a function's summary — spawning is not
// blocking — and are replayed on their own with an empty held set: a
// spawned goroutine does not inherit the spawner's critical section.
//
// Scope: direct operations are reported in every package. Calls that block
// transitively are reported in internal/runtime, where
// the node/cluster locks and the gossip hot path live (plus fixture
// packages); mgmt.Local serializes a whole substrate behind one mutex by
// design.
var Lockreach = &framework.Analyzer{
	Name: "lockreach",
	Doc:  "no blocking operation (channel op, send, sleep, wait), direct or through any chain of calls, while holding a mutex",
	Run:  runLockreach,
}

// lockreachScoped reports whether calls in the package are checked against
// the blocking summaries. The summaries always span the whole program.
func lockreachScoped(path string) bool {
	return fixturePackage(path) ||
		strings.HasPrefix(path, "sendforget/internal/runtime")
}

// blockReason explains why a function may block: a direct operation at pos,
// or a call to the next blocking function down the chain.
type blockReason struct {
	what string
	pos  token.Position
}

// blockSummaries maps every source function that may block to its reason.
type blockSummaries map[*types.Func]*blockReason

func runLockreach(prog *framework.Program, report framework.Report) {
	all := buildBlockSummaries(prog)
	for _, pkg := range prog.Packages {
		var summaries blockSummaries
		if lockreachScoped(pkg.Path) {
			summaries = all
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					if n.Body != nil {
						checkLockreach(prog.CallGraph, pkg.Info, report, n.Body, summaries)
					}
					return false
				case *ast.FuncLit: // package-level initializer
					checkLockreach(prog.CallGraph, pkg.Info, report, n.Body, summaries)
					return false
				}
				return true
			})
		}
	}
}

// buildBlockSummaries computes the may-block fixpoint over every source
// function in the program.
func buildBlockSummaries(prog *framework.Program) blockSummaries {
	summaries := make(blockSummaries)
	type fnCalls struct {
		pkg   *framework.Package
		fn    *types.Func
		calls []*ast.CallExpr
	}
	var fns []fnCalls
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fc := fnCalls{pkg: pkg, fn: framework.FuncOf(pkg, fd)}
				if fc.fn == nil {
					continue
				}
				walkExecuted(fd.Body, func(n ast.Node) {
					if summaries[fc.fn] != nil {
						return
					}
					if _, why := blockingOp(pkg.Info, n); why != "" {
						summaries[fc.fn] = &blockReason{why, pkg.Fset.Position(n.Pos())}
					} else if call, ok := n.(*ast.CallExpr); ok {
						fc.calls = append(fc.calls, call)
					}
				})
				if summaries[fc.fn] == nil {
					fns = append(fns, fc)
				}
			}
		}
	}
	// Propagate call edges to fixpoint: fn blocks if any resolvable callee
	// blocks.
	for changed := true; changed; {
		changed = false
		for _, fc := range fns {
			for _, call := range fc.calls {
				if summaries[fc.fn] != nil {
					break
				}
				for _, callee := range prog.CallGraph.Callees(fc.pkg.Info, call) {
					if why := summaries[callee]; why != nil && callee != fc.fn {
						summaries[fc.fn] = &blockReason{
							what: fmt.Sprintf("calls %s, which %s", callee.Name(), why.what),
							pos:  fc.pkg.Fset.Position(call.Pos()),
						}
						changed = true
						break
					}
				}
			}
		}
	}
	return summaries
}

// walkExecuted calls visit, in source order, for every node root executes
// on its own goroutine: it skips go statements (spawning never blocks; only
// the arguments are evaluated here) and function literals that are merely
// defined, and descends into immediately-invoked and deferred literals. A
// select is visited as one operation — its communications block, or not,
// as a group — followed by the calls among their operands and the clause
// bodies.
func walkExecuted(root ast.Node, visit func(ast.Node)) {
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case nil, *ast.FuncLit:
			return false
		case *ast.GoStmt:
			for _, arg := range n.Call.Args {
				walkExecuted(arg, visit)
			}
			return false
		case *ast.SelectStmt:
			visit(n)
			for _, c := range n.Body.List {
				cc := c.(*ast.CommClause)
				if cc.Comm != nil {
					walkExecuted(cc.Comm, func(m ast.Node) {
						if _, isCall := m.(*ast.CallExpr); isCall {
							visit(m)
						}
					})
				}
				for _, s := range cc.Body {
					walkExecuted(s, visit)
				}
			}
			return false
		case *ast.CallExpr:
			if lit, ok := ast.Unparen(n.Fun).(*ast.FuncLit); ok {
				walkExecuted(lit.Body, visit)
			}
		}
		visit(n)
		return true
	})
}

// blockingOp classifies one node as an operation that blocks the goroutine
// executing it: direct words it as a finding under a lock ("channel send"),
// why as a callee's summary ("sends on a channel"); both are empty for any
// other node. A Lock/RLock acquisition has a why only: it makes its
// function blocking for callers that hold a mutex, but nesting two
// acquisitions in one body is the runtime's cluster-then-node order, not a
// finding.
func blockingOp(info *types.Info, n ast.Node) (direct, why string) {
	switch n := n.(type) {
	case *ast.SendStmt:
		return "channel send", "sends on a channel"
	case *ast.UnaryExpr:
		if n.Op == token.ARROW {
			return "channel receive", "receives from a channel"
		}
	case *ast.SelectStmt:
		for _, c := range n.Body.List {
			if c.(*ast.CommClause).Comm == nil {
				return "", "" // a select with a default never blocks
			}
		}
		return "blocking select", "blocks in a select"
	case *ast.RangeStmt:
		if t := info.TypeOf(n.X); t != nil {
			if _, isChan := t.Underlying().(*types.Chan); isChan {
				return "range over a channel", "ranges over a channel"
			}
		}
	case *ast.CallExpr:
		sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
		if !ok {
			break
		}
		if _, _, acquire, isMutex := framework.MutexOp(info, n); isMutex {
			if acquire {
				why = "acquires " + types.ExprString(sel.X)
			}
			return "", why
		}
		var name string
		if selection, isMethod := info.Selections[sel]; isMethod {
			switch sel.Sel.Name {
			case "Send":
				name = types.ExprString(sel.X) + ".Send"
			case "Wait":
				for _, t := range []string{"WaitGroup", "Cond"} {
					if framework.IsSyncNamed(selection.Recv(), t) {
						name = "sync." + t + ".Wait"
					}
				}
			}
		} else if fn, isFn := info.Uses[sel.Sel].(*types.Func); isFn && fn.Pkg() != nil &&
			fn.Pkg().Path() == "time" && fn.Name() == "Sleep" {
			name = "time.Sleep"
		}
		if name != "" {
			return "call to " + name, "calls " + name
		}
	}
	return "", ""
}

// checkLockreach replays one function body under the may-hold dataflow and
// reports what blocks while any mutex may be held. Function literals are
// checked on their own with an empty held set — a goroutine or callback
// does not inherit its creator's critical section.
func checkLockreach(graph *framework.CallGraph, info *types.Info, report framework.Report, body *ast.BlockStmt, summaries blockSummaries) {
	// What the CFG does not carry: the select or range statement a
	// communication or range-operand node belongs to, and the receiver path
	// each mutex is locked through, for the diagnostic.
	stmtOf := map[ast.Node]ast.Stmt{}
	paths := map[types.Object]string{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			checkLockreach(graph, info, report, n.Body, summaries)
			return false
		case *ast.SelectStmt:
			for _, c := range n.Body.List {
				if comm := c.(*ast.CommClause).Comm; comm != nil {
					stmtOf[comm] = n
				}
			}
		case *ast.RangeStmt:
			stmtOf[n.X] = n
		case *ast.CallExpr:
			if obj, _, acquire, ok := framework.MutexOp(info, n); ok && acquire {
				paths[obj] = types.ExprString(ast.Unparen(n.Fun).(*ast.SelectorExpr).X)
			}
		}
		return true
	})

	holding := func(held framework.Lockset) string {
		names := make([]string, 0, len(held))
		for obj := range held {
			names = append(names, paths[obj])
		}
		sort.Strings(names)
		return strings.Join(names, ", ")
	}
	reported := map[token.Pos]bool{}
	check := func(n ast.Node, held framework.Lockset) {
		if reported[n.Pos()] {
			return
		}
		if direct, why := blockingOp(info, n); direct != "" {
			reported[n.Pos()] = true
			report(n.Pos(), "%s while holding %s: release the lock (or stage the message) first", direct, holding(held))
		} else if call, ok := n.(*ast.CallExpr); ok && why == "" {
			for _, callee := range graph.Callees(info, call) {
				if why := summaries[callee]; why != nil {
					reported[n.Pos()] = true
					report(n.Pos(),
						"call to %s while holding %s: %s %s (%s); release the lock first",
						callee.Name(), holding(held), callee.Name(), why.what, why.pos)
					break
				}
			}
		}
	}
	framework.ReplayHeldLocks(framework.BuildCFG(body), nil, framework.MayHold,
		func(held framework.Lockset, n ast.Node) { framework.MutexOps(info, held, n) },
		func(n ast.Node, held framework.Lockset) {
			if len(held) == 0 {
				return
			}
			if s := stmtOf[n]; s != nil {
				check(s, held)
				if _, isSelect := s.(*ast.SelectStmt); isSelect {
					return // the communication is the select's own operation
				}
			}
			walkExecuted(n, func(m ast.Node) { check(m, held) })
		})
}
