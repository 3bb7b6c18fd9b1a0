package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"sendforget/internal/analyzers/framework"
)

// Maporder flags `range` over a map when the loop body feeds
// order-sensitive output: appends to a slice, table/report building
// (AddRow, AddNote), direct writer calls (fmt.Print/Fprint families,
// Write/WriteString), channel sends, or floating-point accumulation.
// Go randomizes map iteration order per run, so any of these sinks makes
// the output differ between two executions with identical seeds — which
// breaks the repository's byte-identical `-parallel` guarantee (the
// sfexperiments printer promises identical stdout for every worker count,
// and the equivalence harness diffs reports across substrates).
//
// Pure accumulation into order-free targets (integer sums, sets, other
// maps) is not flagged. An append is also forgiven when, later in the same
// function, the appended slice is passed to a sort call (sort.*, slices.*)
// — the sort re-establishes a canonical order, which is the standard
// sorted-keys idiom used by experiments.IDs.
//
// Floating-point accumulation (`x += f(...)`) is flagged even though it
// looks commutative: float addition is not associative, so map order
// changes the rounded sum and the printed digits with it.
//
// Suite history: the suite's first full-repo run caught three real
// bit-determinism bugs — an integer histogram's mean and variance summed
// its counts map in iteration order, and loss.PerDest.Rate did the same
// over its per-destination map; all three were rewritten to iterate sorted
// keys. The repo's remaining map ranges were already order-free or sorted
// (registry.buildRegistry sorts its id slice before emitting).
var Maporder = &framework.Analyzer{
	Name: "maporder",
	Doc:  "map iteration order must not reach ordered output (slices, tables, writers) without a sort",
	Run:  runMaporder,
}

func runMaporder(prog *framework.Program, report framework.Report) {
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					rs, ok := n.(*ast.RangeStmt)
					if !ok {
						return true
					}
					if t := pkg.Info.TypeOf(rs.X); t == nil || !isMapType(t) {
						return true
					}
					reportMapOrderSinks(pkg.Info, report, fd, rs)
					return true
				})
			}
		}
	}
}

// isMapType reports whether t is (or points to) a map.
func isMapType(t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// orderedSinkMethods are method names that emit into ordered structures.
var orderedSinkMethods = map[string]bool{
	"AddRow": true, "AddNote": true,
	"Write": true, "WriteString": true, "WriteRow": true,
}

// reportMapOrderSinks scans one map-range body for order-sensitive sinks.
func reportMapOrderSinks(info *types.Info, report framework.Report, fd *ast.FuncDecl, rs *ast.RangeStmt) {
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			switch fun := n.Fun.(type) {
			case *ast.Ident:
				if fun.Name == "append" && isBuiltinAppend(info, fun) && len(n.Args) > 0 {
					target := types.ExprString(n.Args[0])
					if !sortedLaterInFunc(info, fd, rs, target) {
						report(n.Pos(),
							"append to %s in map-iteration order: sort the keys first (or sort %s before it is consumed)",
							target, target)
					}
				}
			case *ast.SelectorExpr:
				name := fun.Sel.Name
				if fn, ok := info.Uses[fun.Sel].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
					if len(name) >= 5 && (name[:5] == "Print" || name[:6] == "Fprint") {
						report(n.Pos(),
							"fmt.%s inside a map range: output order changes per run; sort the keys first", name)
					}
					return true
				}
				if _, isMethod := info.Selections[fun]; isMethod && orderedSinkMethods[name] {
					report(n.Pos(),
						"%s call in map-iteration order: rows/bytes land in per-run order; sort the keys first", name)
				}
			}
		case *ast.SendStmt:
			report(n.Pos(), "channel send in map-iteration order: receivers observe a per-run order; sort the keys first")
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 {
				if t := info.TypeOf(n.Lhs[0]); t != nil {
					if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsFloat != 0 {
						report(n.Pos(),
							"floating-point accumulation in map-iteration order: float addition is not associative, so the sum depends on the per-run order; sort the keys first")
					}
				}
			}
		}
		return true
	})
}

// isBuiltinAppend confirms the identifier resolves to the append builtin
// (not a shadowing local function).
func isBuiltinAppend(info *types.Info, id *ast.Ident) bool {
	_, ok := info.Uses[id].(*types.Builtin)
	return ok
}

// sortedLaterInFunc reports whether, after the range statement, the target
// expression is passed to a sort call in the same function — the
// sorted-keys idiom that re-establishes deterministic order.
func sortedLaterInFunc(info *types.Info, fd *ast.FuncDecl, rs *ast.RangeStmt, target string) bool {
	sorted := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if sorted {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() {
			return true
		}
		var callee *ast.Ident
		switch fun := call.Fun.(type) {
		case *ast.SelectorExpr:
			callee = fun.Sel
		case *ast.Ident:
			callee = fun
		default:
			return true
		}
		fn, ok := info.Uses[callee].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		// Anything from sort/slices, plus domain sorters like peer.Sort
		// (also reached as a bare Sort(...) inside package peer itself).
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" &&
			!strings.HasPrefix(fn.Name(), "Sort") {
			return true
		}
		for _, arg := range call.Args {
			if types.ExprString(arg) == target {
				sorted = true
				return false
			}
		}
		return true
	})
	return sorted
}
