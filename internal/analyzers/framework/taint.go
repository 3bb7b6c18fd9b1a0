package framework

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Taint is a small monotone lattice of labels ordered by <: joining takes
// the maximum. 0 means untainted. What the levels mean is the analyzer's
// business — seedtaint uses 1 = "is a seed" and 2 = "seed derived by
// arithmetic".
type Taint uint8

// TaintSpec configures one interprocedural taint analysis over a Program.
//
// The engine is flow-insensitive and object-based: taint attaches to
// types.Objects (variables, parameters, struct fields, results assigned to
// named values) and to function return values, and propagates through
// assignments, composite-literal fields, call arguments into parameters of
// source-loaded callees (including CHA-resolved interface callees), and
// returns back to call sites — iterated to a fixpoint. Field taint is
// field-based (one label per field object, not per instance), the standard
// sound coarsening. Closures propagate naturally: a captured variable is
// the same object inside and outside the literal.
type TaintSpec struct {
	// Source returns the intrinsic taint of an expression (before operand
	// propagation), e.g. "an integer identifier named like a seed". Return
	// 0 for expressions with no intrinsic taint.
	Source func(info *types.Info, e ast.Expr) Taint
	// Binary combines operand taints through a binary operator — the hook
	// where seedtaint promotes "seed" to "arithmetically derived seed".
	Binary func(op token.Token, x, y Taint) Taint
	// Call, when it reports handled=true, overrides the taint of a call's
	// result (e.g. rng.DeriveSeed sanitizes: any input, clean seed out).
	// Unhandled calls take the join of their resolved callees' return
	// taints.
	Call func(info *types.Info, call *ast.CallExpr, callees []*types.Func, arg func(int) Taint) (t Taint, handled bool)
}

// TaintResult is the fixpoint of one taint analysis. Eval answers "how
// tainted is this expression" for sink checks after solving.
type TaintResult struct {
	spec  TaintSpec
	graph *CallGraph
	obj   map[types.Object]Taint
	ret   map[*types.Func]Taint
}

// SolveTaint runs the analysis to fixpoint over every package of prog.
func SolveTaint(prog *Program, spec TaintSpec) *TaintResult {
	r := &TaintResult{
		spec:  spec,
		graph: prog.CallGraph,
		obj:   make(map[types.Object]Taint),
		ret:   make(map[*types.Func]Taint),
	}
	// The lattice is finite and every transfer joins upward, so this
	// terminates; the bound is a safety net, not a tuning knob.
	for pass := 0; pass < 64; pass++ {
		changed := false
		for _, pkg := range prog.Packages {
			for _, f := range pkg.Files {
				for _, decl := range f.Decls {
					fd, ok := decl.(*ast.FuncDecl)
					if !ok || fd.Body == nil {
						continue
					}
					fn := FuncOf(pkg, fd)
					if r.propagate(pkg.Info, fn, fd.Body) {
						changed = true
					}
				}
			}
		}
		if !changed {
			return r
		}
	}
	return r
}

// Eval returns the taint of an expression under the solved fixpoint, using
// the type info of the package the expression belongs to.
func (r *TaintResult) Eval(info *types.Info, e ast.Expr) Taint {
	return r.eval(info, e)
}

// joinObj raises an object's taint, reporting whether it changed.
func (r *TaintResult) joinObj(obj types.Object, t Taint) bool {
	if obj == nil || t == 0 || r.obj[obj] >= t {
		return false
	}
	r.obj[obj] = t
	return true
}

func (r *TaintResult) joinRet(fn *types.Func, t Taint) bool {
	if fn == nil || t == 0 || r.ret[fn] >= t {
		return false
	}
	r.ret[fn] = t
	return true
}

// propagate runs one transfer pass over a function body, joining taint into
// assigned objects, callee parameters, and the function's return summary.
// fn is nil inside function literals whose return values no call site can
// see; their internal object flow still propagates.
func (r *TaintResult) propagate(info *types.Info, fn *types.Func, body *ast.BlockStmt) bool {
	changed := false
	var walk func(n ast.Node, fn *types.Func)
	walk = func(n ast.Node, fn *types.Func) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				// Its returns are invisible to call sites (dynamic), but
				// captured-variable flow inside still matters.
				walk(n.Body, nil)
				return false
			case *ast.AssignStmt:
				r.assign(info, n, &changed)
			case *ast.ValueSpec:
				for i, name := range n.Names {
					if i < len(n.Values) {
						if r.joinObj(info.Defs[name], r.eval(info, n.Values[i])) {
							changed = true
						}
					}
				}
			case *ast.KeyValueExpr:
				// Composite-literal field write: T{Field: v}.
				if key, ok := n.Key.(*ast.Ident); ok {
					if r.joinObj(info.Uses[key], r.eval(info, n.Value)) {
						changed = true
					}
				}
			case *ast.CallExpr:
				r.callArgs(info, n, &changed)
			case *ast.ReturnStmt:
				for _, res := range n.Results {
					if r.joinRet(fn, r.eval(info, res)) {
						changed = true
					}
				}
			case *ast.RangeStmt:
				t := r.eval(info, n.X)
				if t != 0 {
					for _, lhs := range []ast.Expr{n.Key, n.Value} {
						if id, ok := lhs.(*ast.Ident); ok {
							if r.joinObj(info.Defs[id], t) {
								changed = true
							}
						}
					}
				}
			case *ast.IncDecStmt:
				// x++ is x = x + 1: arithmetic on x's current taint.
				if r.spec.Binary != nil {
					t := r.spec.Binary(token.ADD, r.eval(info, n.X), 0)
					if r.joinLHS(info, n.X, t) {
						changed = true
					}
				}
			}
			return true
		})
	}
	walk(body, fn)
	return changed
}

// assign joins RHS taint into LHS objects, handling compound assignment
// operators (seed += 1 is arithmetic) and multi-value calls.
func (r *TaintResult) assign(info *types.Info, n *ast.AssignStmt, changed *bool) {
	if len(n.Rhs) == 1 && len(n.Lhs) > 1 {
		// x, y := f(): the single return summary covers every result.
		t := r.eval(info, n.Rhs[0])
		for _, lhs := range n.Lhs {
			if r.joinLHS(info, lhs, t) {
				*changed = true
			}
		}
		return
	}
	for i, lhs := range n.Lhs {
		if i >= len(n.Rhs) {
			break
		}
		t := r.eval(info, n.Rhs[i])
		if op, isCompound := compoundOp(n.Tok); isCompound && r.spec.Binary != nil {
			t = r.spec.Binary(op, r.eval(info, lhs), t)
		}
		if r.joinLHS(info, lhs, t) {
			*changed = true
		}
	}
}

// joinLHS attaches taint to the object behind an assignable expression.
func (r *TaintResult) joinLHS(info *types.Info, lhs ast.Expr, t Taint) bool {
	if t == 0 {
		return false
	}
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if obj := info.Defs[lhs]; obj != nil {
			return r.joinObj(obj, t)
		}
		return r.joinObj(info.Uses[lhs], t)
	case *ast.SelectorExpr:
		return r.joinObj(info.Uses[lhs.Sel], t)
	case *ast.StarExpr:
		return r.joinLHS(info, lhs.X, t)
	case *ast.IndexExpr:
		return r.joinLHS(info, lhs.X, t)
	}
	return false
}

// callArgs flows argument taint into the parameters of every source-loaded
// callee (the interprocedural step).
func (r *TaintResult) callArgs(info *types.Info, call *ast.CallExpr, changed *bool) {
	callees := r.graph.Callees(info, call)
	if len(callees) == 0 {
		return
	}
	for _, fn := range callees {
		src := r.graph.SourceOf(fn)
		if src == nil {
			continue
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok {
			continue
		}
		params := sig.Params()
		for i, arg := range call.Args {
			t := r.eval(info, arg)
			if t == 0 {
				continue
			}
			pi := i
			if sig.Variadic() && pi >= params.Len()-1 {
				pi = params.Len() - 1
			}
			if pi < params.Len() {
				if r.joinObj(params.At(pi), t) {
					*changed = true
				}
			}
		}
	}
}

// eval computes an expression's taint: intrinsic source taint joined with
// propagated object, operator, and call-summary taint.
func (r *TaintResult) eval(info *types.Info, e ast.Expr) Taint {
	if e == nil {
		return 0
	}
	var t Taint
	if r.spec.Source != nil {
		t = r.spec.Source(info, e)
	}
	switch e := e.(type) {
	case *ast.Ident:
		if obj := info.Uses[e]; obj != nil {
			t = maxTaint(t, r.obj[obj])
		} else if obj := info.Defs[e]; obj != nil {
			t = maxTaint(t, r.obj[obj])
		}
	case *ast.SelectorExpr:
		t = maxTaint(t, r.obj[info.Uses[e.Sel]])
	case *ast.ParenExpr:
		t = maxTaint(t, r.eval(info, e.X))
	case *ast.StarExpr:
		t = maxTaint(t, r.eval(info, e.X))
	case *ast.UnaryExpr:
		inner := r.eval(info, e.X)
		if r.spec.Binary != nil && isArithUnary(e.Op) {
			inner = r.spec.Binary(arithToken(e.Op), inner, 0)
		}
		t = maxTaint(t, inner)
	case *ast.BinaryExpr:
		x, y := r.eval(info, e.X), r.eval(info, e.Y)
		if r.spec.Binary != nil {
			t = maxTaint(t, r.spec.Binary(e.Op, x, y))
		} else {
			t = maxTaint(t, maxTaint(x, y))
		}
	case *ast.CallExpr:
		t = maxTaint(t, r.evalCall(info, e))
	case *ast.IndexExpr:
		t = maxTaint(t, r.eval(info, e.X))
	case *ast.TypeAssertExpr:
		t = maxTaint(t, r.eval(info, e.X))
	}
	return t
}

func (r *TaintResult) evalCall(info *types.Info, call *ast.CallExpr) Taint {
	// A conversion passes its operand's taint through unchanged.
	if tv, ok := info.Types[ast.Unparen(call.Fun)]; ok && tv.IsType() && len(call.Args) == 1 {
		return r.eval(info, call.Args[0])
	}
	callees := r.graph.Callees(info, call)
	if r.spec.Call != nil {
		if t, handled := r.spec.Call(info, call, callees, func(i int) Taint {
			if i < 0 || i >= len(call.Args) {
				return 0
			}
			return r.eval(info, call.Args[i])
		}); handled {
			return t
		}
	}
	var t Taint
	for _, fn := range callees {
		t = maxTaint(t, r.ret[fn])
	}
	return t
}

func maxTaint(a, b Taint) Taint {
	if a > b {
		return a
	}
	return b
}

// compoundOp maps an assignment operator to its underlying arithmetic
// token (+= to +), reporting whether tok is compound at all.
func compoundOp(tok token.Token) (token.Token, bool) {
	switch tok {
	case token.ADD_ASSIGN:
		return token.ADD, true
	case token.SUB_ASSIGN:
		return token.SUB, true
	case token.MUL_ASSIGN:
		return token.MUL, true
	case token.QUO_ASSIGN:
		return token.QUO, true
	case token.REM_ASSIGN:
		return token.REM, true
	case token.AND_ASSIGN:
		return token.AND, true
	case token.OR_ASSIGN:
		return token.OR, true
	case token.XOR_ASSIGN:
		return token.XOR, true
	case token.SHL_ASSIGN:
		return token.SHL, true
	case token.SHR_ASSIGN:
		return token.SHR, true
	case token.AND_NOT_ASSIGN:
		return token.AND_NOT, true
	}
	return tok, false
}

func isArithUnary(op token.Token) bool {
	return op == token.SUB || op == token.XOR // -x, ^x
}

func arithToken(op token.Token) token.Token {
	if op == token.XOR {
		return token.XOR
	}
	return token.SUB
}
