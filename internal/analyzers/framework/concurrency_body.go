// Body analysis for the happens-before/confinement engine: per-function
// control-flow replay that tracks the must-held lockset through every
// block, collects call-site contributions for the interprocedural entry
// fixpoint, and (in the final pass) records every tracked shared-object
// access with its locks, contexts, and confinement facts.

package framework

import (
	"go/ast"
	"go/token"
	"go/types"
)

// bodyEnv is the per-body analysis environment. Deferred and immediately
// invoked literals share the enclosing environment (same label, same local
// fact maps); goroutine and stored-callback literals get their own.
type bodyEnv struct {
	fn      *concFn
	pkg     *Package
	label   string
	ctxs    map[*Goroutine]bool
	entry   Lockset
	freshOK bool
	fresh   map[types.Object]bool
	taint   map[types.Object]bool
	// addr marks locals whose storage may be reached from outside the
	// body's straight-line code: address-taken (explicitly or by a
	// pointer-receiver method call) or captured by a function literal.
	// Only addr-free locals qualify as private value storage.
	addr map[types.Object]bool
}

func (s *concSolver) runBody(fn *concFn) {
	env := &bodyEnv{
		fn:      fn,
		pkg:     fn.pkg,
		label:   fn.label,
		ctxs:    fn.ctxs,
		entry:   fn.entry,
		freshOK: true,
		fresh:   make(map[types.Object]bool),
		taint:   make(map[types.Object]bool),
		addr:    make(map[types.Object]bool),
	}
	s.analyzeBody(env, fn.decl.Body)
}

// analyzeBody runs the full per-body pipeline: local fact prescan,
// must-lockset dataflow, and the block replay that feeds the fixpoint
// (collect mode) or the access list (emit mode).
func (s *concSolver) analyzeBody(env *bodyEnv, body *ast.BlockStmt) {
	s.collectAddrTaken(env, body)
	s.prescan(env, body)
	ReplayHeldLocks(s.cfgOf(body), env.entry, MustHold,
		func(held Lockset, n ast.Node) { s.applyNodeOps(env, held, n) },
		func(n ast.Node, held Lockset) { s.walkNode(env, n, held) })
}

func (s *concSolver) cfgOf(body *ast.BlockStmt) *CFG {
	if c, ok := s.cfgs[body]; ok {
		return c
	}
	c := BuildCFG(body)
	if s.cfgs == nil {
		s.cfgs = make(map[*ast.BlockStmt]*CFG)
	}
	s.cfgs[body] = c
	return c
}

// prescan computes the body's local facts to a fixpoint: freshly
// allocated locals and shard-index-tainted locals. It walks the body proper
// plus deferred/invoked literals, and skips goroutine and stored literals
// (they get their own environments).
func (s *concSolver) prescan(env *bodyEnv, body *ast.BlockStmt) {
	for round := 0; round < 4; round++ {
		changed := false
		mark := func(m map[types.Object]bool, obj types.Object) {
			if obj != nil && !m[obj] {
				m[obj] = true
				changed = true
			}
		}
		assign := func(lhs ast.Expr, rhs ast.Expr) {
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok {
				return
			}
			obj := refObject(env.pkg.Info, id)
			if obj == nil {
				return
			}
			if env.freshOK && freshExpr(rhs) {
				mark(env.fresh, obj)
			}
			if s.taintedExpr(env, rhs) {
				mark(env.taint, obj)
			}
		}
		var walk func(n ast.Node)
		walk = func(n ast.Node) {
			ast.Inspect(n, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.GoStmt:
					return false
				case *ast.DeferStmt:
					if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
						walk(lit.Body)
					}
					return false
				case *ast.CallExpr:
					if lit, ok := ast.Unparen(n.Fun).(*ast.FuncLit); ok {
						walk(lit.Body)
					}
					for _, arg := range n.Args {
						walk(arg)
					}
					return false
				case *ast.FuncLit:
					return false
				case *ast.AssignStmt:
					if len(n.Lhs) == len(n.Rhs) {
						for i := range n.Lhs {
							assign(n.Lhs[i], n.Rhs[i])
						}
					} else if len(n.Rhs) == 1 {
						for _, l := range n.Lhs {
							assign(l, n.Rhs[0])
						}
					}
				case *ast.ValueSpec:
					if len(n.Names) == len(n.Values) {
						for i := range n.Names {
							assign(n.Names[i], n.Values[i])
						}
					} else if len(n.Values) == 1 {
						for _, name := range n.Names {
							assign(name, n.Values[0])
						}
					}
				}
				return true
			})
		}
		walk(body)
		if !changed {
			break
		}
	}
}

// collectAddrTaken marks locals whose storage can leak out of the body's
// value semantics: explicitly address-taken, implicitly address-taken by a
// pointer-receiver method call, or captured by a function literal. The
// scan descends into literals too — over-marking there only costs
// precision in the shared fact maps, never soundness.
func (s *concSolver) collectAddrTaken(env *bodyEnv, body *ast.BlockStmt) {
	info := env.pkg.Info
	local := func(e ast.Expr) types.Object {
		v, _ := rootIdentObj(info, e).(*types.Var)
		if v == nil || v.IsField() || v.Pkg() == nil || v.Parent() == v.Pkg().Scope() {
			return nil
		}
		return v
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if v := local(n.X); v != nil {
					env.addr[v] = true
				}
			}
		case *ast.CallExpr:
			sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
			if !ok {
				break
			}
			fn, ok := info.Uses[sel.Sel].(*types.Func)
			if !ok {
				break
			}
			sig, ok := fn.Type().(*types.Signature)
			if !ok || sig.Recv() == nil {
				break
			}
			if _, isPtr := sig.Recv().Type().(*types.Pointer); isPtr {
				if v := local(sel.X); v != nil {
					env.addr[v] = true
				}
			}
		case *ast.FuncLit:
			ast.Inspect(n.Body, func(m ast.Node) bool {
				id, ok := m.(*ast.Ident)
				if !ok {
					return true
				}
				v, ok := info.Uses[id].(*types.Var)
				if ok && !v.IsField() && v.Pkg() != nil &&
					v.Parent() != v.Pkg().Scope() &&
					(v.Pos() < n.Pos() || v.Pos() > n.End()) {
					env.addr[v] = true
				}
				return true
			})
		}
		return true
	})
}

// ---------------------------------------------------------------------------
// Lock operations
// ---------------------------------------------------------------------------

// applyNodeOps applies one CFG node's lock operations to held, in place:
// token-channel acquires/releases, barrier-region entry/exit, and mutex
// Lock/Unlock families. Deferred releases are deliberately ignored — a
// token or mutex released only under defer is held to function exit.
func (s *concSolver) applyNodeOps(env *bodyEnv, held Lockset, node ast.Node) {
	info := env.pkg.Info
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt, *ast.FuncLit, *ast.DeferStmt:
			return false
		case *ast.ExprStmt:
			if u, ok := ast.Unparen(n.X).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
				s.applyRecv(info, held, u.X)
				return false
			}
		case *ast.AssignStmt:
			if len(n.Rhs) == 1 {
				if u, ok := ast.Unparen(n.Rhs[0]).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
					s.applyRecv(info, held, u.X)
				}
			}
		case *ast.SendStmt:
			if obj := chanRefObject(info, n.Chan); obj != nil {
				if s.tokens[obj] {
					delete(held, obj)
				}
				for _, spec := range s.barriers {
					if spec.done == obj {
						for k := range spec.locks {
							if held[k] == ModeBarrier {
								delete(held, k)
							}
						}
					}
				}
			}
		case *ast.CallExpr:
			held.applyMutexOp(info, n)
		}
		return true
	})
}

// applyRecv handles a channel receive as a lock operation: receiving a
// token acquires it exclusively; receiving from a barrier work channel
// enters the inherited region.
func (s *concSolver) applyRecv(info *types.Info, held Lockset, ch ast.Expr) {
	obj := chanRefObject(info, ch)
	if obj == nil {
		return
	}
	if s.tokens[obj] {
		held[obj] = ModeExcl
		return
	}
	for _, spec := range s.barriers {
		if spec.work == obj {
			for k, m := range spec.locks {
				if _, exists := held[k]; !exists {
					held[k] = m
				}
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Node replay: calls, literal descent, access recording
// ---------------------------------------------------------------------------

// exprCtx carries the syntactic context down an expression walk: whether
// the expression is a write target and whether it is the base of an index
// expression with a shard-tainted index.
type exprCtx struct {
	write    bool
	confined bool
}

// walkNode dispatches one CFG node to the expression walker with the
// correct write context.
func (s *concSolver) walkNode(env *bodyEnv, n ast.Node, held Lockset) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		for _, lhs := range n.Lhs {
			s.walkExpr(env, lhs, held, exprCtx{write: true})
		}
		for _, rhs := range n.Rhs {
			s.walkExpr(env, rhs, held, exprCtx{})
		}
	case *ast.IncDecStmt:
		s.walkExpr(env, n.X, held, exprCtx{write: true})
	case *ast.SendStmt:
		if !s.emit {
			// Record the must-held meet at every send on a channel field:
			// barrier detection reads the dispatcher's lockset here.
			if obj := chanRefObject(env.pkg.Info, n.Chan); obj != nil {
				if !s.sendHeldOK[obj] {
					s.sendHeld[obj] = held.clone()
					s.sendHeldOK[obj] = true
				} else {
					s.sendHeld[obj] = intersectLocks(s.sendHeld[obj], held)
				}
			}
		}
		s.walkExpr(env, n.Chan, held, exprCtx{})
		s.walkExpr(env, n.Value, held, exprCtx{})
	case *ast.GoStmt:
		s.walkGoCall(env, n, held)
	case *ast.DeferStmt:
		s.walkDeferCall(env, n, held)
	case *ast.ReturnStmt:
		for _, r := range n.Results {
			s.walkExpr(env, r, held, exprCtx{})
		}
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						s.walkExpr(env, v, held, exprCtx{})
					}
				}
			}
		}
	case *ast.ExprStmt:
		s.walkExpr(env, n.X, held, exprCtx{})
	case ast.Expr:
		s.walkExpr(env, n, held, exprCtx{})
	}
}

// walkGoCall handles a go statement during replay: the spawned literal is
// analyzed in its own goroutine environment; a spawned declared function
// receives an empty call-site lockset; argument expressions evaluate in
// the current region.
func (s *concSolver) walkGoCall(env *bodyEnv, n *ast.GoStmt, held Lockset) {
	if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
		s.analyzeBody(env.detached(" goroutine", s.litCtx[lit]), lit.Body)
	} else if !s.emit {
		for _, callee := range s.prog.CallGraph.Callees(env.pkg.Info, n.Call) {
			if s.byObj[callee] != nil {
				s.candMeet(callee, Lockset{})
			}
		}
	}
	for _, arg := range n.Call.Args {
		if _, isLit := ast.Unparen(arg).(*ast.FuncLit); !isLit {
			s.walkExpr(env, arg, held, exprCtx{})
		}
	}
}

// walkDeferCall handles a defer during replay. A deferred literal inherits
// the environment with the locks held at registration (deferred releases
// are ignored, so this matches the locks still held at exit on the paths
// through this defer); a deferred named call is treated as an executed
// call site.
func (s *concSolver) walkDeferCall(env *bodyEnv, n *ast.DeferStmt, held Lockset) {
	if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
		sub := env.inherit(held)
		s.analyzeBody(sub, lit.Body)
	} else {
		s.walkCallSite(env, n.Call, held)
		if sel, ok := ast.Unparen(n.Call.Fun).(*ast.SelectorExpr); ok {
			s.walkExpr(env, sel.X, held, exprCtx{})
		}
	}
	for _, arg := range n.Call.Args {
		if _, isLit := ast.Unparen(arg).(*ast.FuncLit); !isLit {
			s.walkExpr(env, arg, held, exprCtx{})
		}
	}
}

// inherit builds a sub-environment that shares the label and local facts of
// env but snapshots the given lockset as its entry.
func (env *bodyEnv) inherit(held Lockset) *bodyEnv {
	sub := *env
	sub.entry = held.clone()
	return &sub
}

// detached builds the environment of a literal that does not run in env's
// region — a goroutine body or an escaping callback: one context, no locks,
// no local facts, no freshness.
func (env *bodyEnv) detached(suffix string, g *Goroutine) *bodyEnv {
	return &bodyEnv{
		fn:    env.fn,
		pkg:   env.pkg,
		label: env.label + suffix,
		ctxs:  map[*Goroutine]bool{g: true},
		entry: Lockset{},
		fresh: make(map[types.Object]bool),
		taint: make(map[types.Object]bool),
		addr:  make(map[types.Object]bool),
	}
}

// walkExpr recursively records accesses (emit mode), collects executed
// call sites (fixpoint mode), and descends into function literals with
// the environment their execution context demands.
func (s *concSolver) walkExpr(env *bodyEnv, e ast.Expr, held Lockset, ctx exprCtx) {
	if e == nil {
		return
	}
	info := env.pkg.Info
	switch e := e.(type) {
	case *ast.ParenExpr:
		s.walkExpr(env, e.X, held, ctx)
	case *ast.Ident:
		s.recordIdent(env, e, held, ctx)
	case *ast.SelectorExpr:
		if v, ok := info.Uses[e.Sel].(*types.Var); ok {
			s.record(env, e, v, held, ctx)
		}
		s.walkExpr(env, e.X, held, exprCtx{})
	case *ast.IndexExpr:
		s.walkExpr(env, e.X, held, exprCtx{write: ctx.write, confined: s.taintedExpr(env, e.Index)})
		s.walkExpr(env, e.Index, held, exprCtx{})
	case *ast.SliceExpr:
		s.walkExpr(env, e.X, held, exprCtx{write: ctx.write})
		s.walkExpr(env, e.Low, held, exprCtx{})
		s.walkExpr(env, e.High, held, exprCtx{})
		s.walkExpr(env, e.Max, held, exprCtx{})
	case *ast.StarExpr:
		s.walkExpr(env, e.X, held, exprCtx{write: ctx.write})
	case *ast.UnaryExpr:
		s.walkExpr(env, e.X, held, exprCtx{write: ctx.write && e.Op == token.AND})
	case *ast.BinaryExpr:
		s.walkExpr(env, e.X, held, exprCtx{})
		s.walkExpr(env, e.Y, held, exprCtx{})
	case *ast.TypeAssertExpr:
		s.walkExpr(env, e.X, held, exprCtx{write: ctx.write})
	case *ast.KeyValueExpr:
		s.walkExpr(env, e.Value, held, exprCtx{})
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			s.walkExpr(env, el, held, exprCtx{})
		}
	case *ast.FuncLit:
		// A bare literal in expression position escapes: analyze as an
		// external callback.
		s.descendStoredLit(env, e)
	case *ast.CallExpr:
		s.walkCall(env, e, held)
	}
}

// walkCall handles every call-shaped expression: conversions, immediately
// invoked and escaping literals, executed call-site collection, and
// receiver/argument traversal.
func (s *concSolver) walkCall(env *bodyEnv, call *ast.CallExpr, held Lockset) {
	fun := ast.Unparen(call.Fun)
	if lit, ok := fun.(*ast.FuncLit); ok {
		// Immediately invoked literal: inherits everything.
		s.analyzeBody(env.inherit(held), lit.Body)
	} else if tv, ok := env.pkg.Info.Types[fun]; !ok || !tv.IsType() {
		s.walkCallSite(env, call, held)
		if sel, ok := fun.(*ast.SelectorExpr); ok {
			// Method receiver (or package qualifier — resolves to nothing).
			s.walkExpr(env, sel.X, held, exprCtx{})
		}
	}
	for _, arg := range call.Args {
		s.walkExpr(env, arg, held, exprCtx{})
	}
}

// descendStoredLit analyzes a literal that escapes the current region —
// stored, returned, or passed to a callee that may hold it — as an
// external callback: unknown context, no locks, no freshness.
func (s *concSolver) descendStoredLit(env *bodyEnv, lit *ast.FuncLit) {
	s.analyzeBody(env.detached(" callback", s.external), lit.Body)
}

// walkCallSite feeds one executed call into the interprocedural fixpoint:
// the callee's entry lockset candidates meet the caller's held set. Call
// sites on a freshly constructed receiver are skipped — the callee runs on
// an unshared instance there, which must not weaken the entry lockset its
// shared-instance callers establish.
func (s *concSolver) walkCallSite(env *bodyEnv, call *ast.CallExpr, held Lockset) {
	if s.emit {
		return
	}
	info := env.pkg.Info
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if root := rootIdentObj(info, sel.X); root != nil && env.fresh[root] {
			return
		}
	}
	for _, callee := range s.prog.CallGraph.Callees(info, call) {
		if s.byObj[callee] != nil {
			s.candMeet(callee, held)
		}
	}
}

func (s *concSolver) candMeet(callee *types.Func, held Lockset) {
	if !s.candSeen[callee] {
		s.cand[callee] = held.clone()
		s.candSeen[callee] = true
		return
	}
	s.cand[callee] = intersectLocks(s.cand[callee], held)
}

// ---------------------------------------------------------------------------
// Access recording
// ---------------------------------------------------------------------------

// recordIdent records a package-level variable access.
func (s *concSolver) recordIdent(env *bodyEnv, id *ast.Ident, held Lockset, ctx exprCtx) {
	if !s.emit {
		return
	}
	v, ok := env.pkg.Info.Uses[id].(*types.Var)
	if !ok || v.IsField() {
		return
	}
	if v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
		return // local
	}
	s.emitAccess(env, id.Pos(), v, held, ctx, false)
}

// record records a field access reached through a selector.
func (s *concSolver) record(env *bodyEnv, sel *ast.SelectorExpr, v *types.Var, held Lockset, ctx exprCtx) {
	if !s.emit || !v.IsField() {
		return
	}
	root := rootIdentObj(env.pkg.Info, sel.X)
	fresh := (root != nil && env.fresh[root]) || s.privateRoot(env, sel.X) != nil
	s.emitAccess(env, sel.Sel.Pos(), v, held, ctx, fresh)
}

func (s *concSolver) emitAccess(env *bodyEnv, pos token.Pos, v *types.Var, held Lockset, ctx exprCtx, fresh bool) {
	s.accesses = append(s.accesses, &ConcAccess{
		Obj:      v,
		Pos:      pos,
		Position: env.pkg.Fset.Position(pos),
		Pkg:      env.pkg,
		FnLabel:  env.label,
		Write:    ctx.write,
		Fresh:    fresh,
		Confined: ctx.confined,
		Locks:    held.clone(),
		Ctxs:     env.ctxs,
	})
}
