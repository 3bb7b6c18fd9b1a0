package analyzers

import (
	"go/ast"
	"go/types"

	"sendforget/internal/analyzers/framework"
)

// Counterbalance guards the unified traffic-accounting identity documented
// on metrics.Traffic: every attempted transmission is counted under a send
// field (Sent/Sends) exactly once, and then lands in exactly one outcome —
// lost, delivered, or dead-lettered — possibly after a stay in the delay
// queue. The cross-substrate loss experiments compare these ledgers between
// the sequential engine and the concurrent runtime; a counter nudged
// outside the accounting helpers silently invalidates the comparison while
// every test still passes.
//
// A struct type is treated as a traffic ledger when it declares a send
// field (Sent or Sends) alongside at least two outcome fields (Lost,
// Losses, Delivered, Deliveries, NoRoute, DeadLetters, Delayed). That
// shape matches metrics.Traffic (the one ledger every simulated substrate
// reports) and transport.Counters (what a real UDP socket can count) — and
// deliberately excludes per-node tallies like runtime.NodeCounters, which
// have no outcome side.
//
// Two rules are enforced on ledger fields:
//
//  1. Only a ledger's owner may write its fields: internal/driver for
//     metrics.Traffic (the router is its single writer; internal/metrics
//     declares the type and its report methods and writes nothing), the
//     declaring package for every other ledger. Everyone else consumes
//     ledgers read-only (experiments, equivalence, reports) or constructs
//     them whole via composite literals, which the analyzer does not flag:
//     a literal states a complete ledger, it does not perturb a live one.
//
//  2. Inside the owning package, a function that increments a send
//     field must also write at least one outcome field (in some branch) or
//     hand the message to the delay queue (Delayed): counting an attempt
//     without recording where it landed breaks Sends = Losses + Deliveries
//     + DeadLetters once the queue drains. Outcome-only functions (delay
//     queue drains) are legal; send-only functions are not.
//
// The live ledger writes are driver.Router's RouteBy, ruleVerdict and admit
// (and AddTraffic, which sums whole ledgers) and transport.Endpoint's
// Send/receiveLoop, each balanced; this analyzer keeps new accounting
// honest.
var Counterbalance = &framework.Analyzer{
	Name: "counterbalance",
	Doc:  "traffic ledger fields move only in their owning package, and every send write is paired with an outcome write",
	Run:  runCounterbalance,
}

// ledgerOwner names, by qualified type name, the ledgers written by a
// package other than the one declaring them.
var ledgerOwner = map[string]string{
	"sendforget/internal/metrics.Traffic": "sendforget/internal/driver",
}

var counterSendFields = map[string]bool{
	"Sent": true, "Sends": true,
}

var counterOutcomeFields = map[string]bool{
	"Lost": true, "Losses": true,
	"Delivered": true, "Deliveries": true,
	"NoRoute": true, "DeadLetters": true,
	"Delayed": true,
}

func runCounterbalance(prog *framework.Program, report framework.Report) {
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
					checkCounterWrites(pkg, report, fd)
				}
			}
		}
	}
}

// counterWrite is one mutation of a ledger field.
type counterWrite struct {
	pos   ast.Node
	field string
	owner string // path of the package allowed to write the ledger
	typ   string // ledger type name, for diagnostics
}

func checkCounterWrites(pkg *framework.Package, report framework.Report, fd *ast.FuncDecl) {
	var sends, outcomes []counterWrite
	record := func(target ast.Expr) {
		w, ok := ledgerFieldWrite(pkg.Info, target)
		if !ok {
			return
		}
		if w.owner != pkg.Path {
			report(w.pos.Pos(),
				"direct write to %s.%s outside its accounting package %s: route the event through the owning package's counters",
				w.typ, w.field, w.owner)
			return
		}
		if counterSendFields[w.field] {
			sends = append(sends, w)
		} else {
			outcomes = append(outcomes, w)
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IncDecStmt:
			record(n.X)
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				record(lhs)
			}
		}
		return true
	})
	if len(sends) > 0 && len(outcomes) == 0 {
		w := sends[0]
		report(w.pos.Pos(),
			"%s counts a send (%s.%s) but records no outcome: every attempt must land in lost, delivered, dead-letter, or the delay queue",
			fd.Name.Name, w.typ, w.field)
	}
}

// ledgerFieldWrite resolves a write target to a ledger field, if it is one.
func ledgerFieldWrite(info *types.Info, target ast.Expr) (counterWrite, bool) {
	sel, ok := target.(*ast.SelectorExpr)
	if !ok {
		return counterWrite{}, false
	}
	field := sel.Sel.Name
	if !counterSendFields[field] && !counterOutcomeFields[field] {
		return counterWrite{}, false
	}
	selection, ok := info.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return counterWrite{}, false
	}
	recv := selection.Recv()
	if p, isPtr := recv.Underlying().(*types.Pointer); isPtr {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return counterWrite{}, false
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok || !isLedgerStruct(st) {
		return counterWrite{}, false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return counterWrite{}, false
	}
	owner, ok := ledgerOwner[obj.Pkg().Path()+"."+obj.Name()]
	if !ok {
		owner = obj.Pkg().Path()
	}
	return counterWrite{pos: sel, field: field, owner: owner, typ: obj.Name()}, true
}

// isLedgerStruct applies the structural ledger test: a send field plus at
// least two outcome fields.
func isLedgerStruct(st *types.Struct) bool {
	sendN, outcomeN := 0, 0
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if counterSendFields[f.Name()] {
			sendN++
		}
		if counterOutcomeFields[f.Name()] {
			outcomeN++
		}
	}
	return sendN >= 1 && outcomeN >= 2
}
