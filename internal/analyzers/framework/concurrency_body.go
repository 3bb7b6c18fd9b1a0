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

// waitRec is one wg.Wait() call: accesses positioned after it in the same
// body are ordered after the Done()s it joins.
type waitRec struct {
	pos token.Pos
	wg  types.Object
}

// bodyEnv is the per-body analysis environment. Deferred and immediately
// invoked literals share the enclosing environment (same unit, same local
// fact maps); goroutine and stored-callback literals get their own.
type bodyEnv struct {
	fn      *concFn
	pkg     *Package
	unit    *concUnit
	ctxs    map[*Goroutine]bool
	entry   Lockset
	freshOK bool
	fresh   map[types.Object]bool
	taint   map[types.Object]bool
	bless   map[types.Object]bool
	// addr marks locals whose storage may be reached from outside the
	// body's straight-line code: address-taken (explicitly or by a
	// pointer-receiver method call) or captured by a function literal.
	// Only addr-free locals qualify as private value storage.
	addr  map[types.Object]bool
	waits []waitRec
}

func (s *concSolver) runBody(fn *concFn) {
	env := &bodyEnv{
		fn:  fn,
		pkg: fn.pkg,
		unit: &concUnit{
			declObj: fn.obj,
			label:   fn.label,
			root:    true,
			doneWGs: make(map[types.Object]bool),
		},
		ctxs:    fn.ctxs,
		entry:   fn.entry,
		freshOK: true,
		fresh:   make(map[types.Object]bool),
		taint:   make(map[types.Object]bool),
		bless:   make(map[types.Object]bool),
		addr:    make(map[types.Object]bool),
	}
	sig, _ := fn.obj.Type().(*types.Signature)
	if sig != nil {
		if recv := sig.Recv(); recv != nil {
			s.seedParam(env, recv)
			if s.freshOnly[fn.obj] {
				env.fresh[recv] = true
				env.bless[recv] = true
			}
		}
		for i := 0; i < sig.Params().Len(); i++ {
			s.seedParam(env, sig.Params().At(i))
		}
	}
	s.analyzeBody(env, fn.decl.Body)
}

// seedParam applies the cross-function must-facts to one parameter: a
// pointer-free value parameter is the callee's own copy (always blessed);
// reference parameters are blessed or shard-tainted only when every known
// call site passes a blessed or tainted argument.
func (s *concSolver) seedParam(env *bodyEnv, v *types.Var) {
	if pointerFreeType(v.Type()) || s.paramBless[v] {
		env.bless[v] = true
	}
	if s.paramTaint[v] {
		env.taint[v] = true
	}
}

// analyzeBody runs the full per-body pipeline: local fact prescan,
// WaitGroup bookkeeping, must-lockset dataflow, and the block replay that
// feeds the fixpoint (collect mode) or the access list (emit mode).
func (s *concSolver) analyzeBody(env *bodyEnv, body *ast.BlockStmt) {
	s.collectAddrTaken(env, body)
	s.prescan(env, body)
	s.collectWaits(env, body)
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
// allocated locals, shard-index-tainted locals, and blessed (confined)
// locals. It walks the body proper plus deferred/invoked literals, and
// skips goroutine and stored literals (they get their own environments).
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
				mark(env.bless, obj)
			}
			if s.taintedExpr(env, rhs) {
				mark(env.taint, obj)
			}
			if s.blessedExpr(env, rhs) {
				mark(env.bless, obj)
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
					inherit := inheritsLitArg(env.pkg.Info, n)
					for _, arg := range n.Args {
						if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
							if inherit {
								walk(lit.Body)
							}
							continue
						}
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
				case *ast.RangeStmt:
					// Ranging over a blessed container blesses the value
					// binding (the element is the worker's own); ranging
					// over anything blesses neither index nor key with
					// shard taint.
					if n.Value != nil && s.blessedExpr(env, n.X) {
						if id, ok := ast.Unparen(n.Value).(*ast.Ident); ok {
							mark(env.bless, refObject(env.pkg.Info, id))
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

// collectWaits records wg.Wait() positions (join edges for later accesses
// in this body) and wg.Done() calls (this unit signals the group),
// including deferred literals.
func (s *concSolver) collectWaits(env *bodyEnv, body *ast.BlockStmt) {
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				return false
			case *ast.DeferStmt:
				if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
					walk(lit.Body)
				} else if obj, name := s.wgCall(env, n.Call); obj != nil && name == "Done" {
					env.unit.doneWGs[obj] = true
				}
				return false
			case *ast.FuncLit:
				return false
			case *ast.CallExpr:
				if obj, name := s.wgCall(env, n); obj != nil {
					switch name {
					case "Wait":
						env.waits = append(env.waits, waitRec{pos: n.Pos(), wg: obj})
					case "Done":
						env.unit.doneWGs[obj] = true
					}
				}
			}
			return true
		})
	}
	walk(body)
}

// wgCall matches a method call on a sync.WaitGroup-typed field or variable
// and returns the group's object and the method name.
func (s *concSolver) wgCall(env *bodyEnv, call *ast.CallExpr) (types.Object, string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	obj := refObject(env.pkg.Info, sel.X)
	if obj == nil || !IsSyncNamed(obj.Type(), "WaitGroup") {
		return nil, ""
	}
	return obj, sel.Sel.Name
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

// syncGuardedType reports whether a field's type is itself a
// synchronization primitive (channels, sync.* and sync/atomic.* values):
// such fields are their own discipline and are not tracked as plain shared
// data.
func syncGuardedType(t types.Type) bool {
	if _, isChan := t.Underlying().(*types.Chan); isChan {
		return true
	}
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	if n, isNamed := t.(*types.Named); isNamed {
		if pkg := n.Obj().Pkg(); pkg != nil {
			switch pkg.Path() {
			case "sync", "sync/atomic":
				return true
			}
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Node replay: calls, literal descent, access recording
// ---------------------------------------------------------------------------

// exprCtx carries the syntactic context down an expression walk: whether
// the expression is a write target and whether an enclosing construct
// (tainted index, len/cap) blesses accesses below it.
type exprCtx struct {
	write   bool
	blessed bool
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
		g := s.litCtx[lit]
		sub := &bodyEnv{
			fn:  env.fn,
			pkg: env.pkg,
			unit: &concUnit{
				declObj: env.fn.obj,
				label:   env.unit.label + " goroutine",
				doneWGs: make(map[types.Object]bool),
			},
			ctxs:    map[*Goroutine]bool{g: true},
			entry:   Lockset{},
			freshOK: false,
			fresh:   make(map[types.Object]bool),
			taint:   make(map[types.Object]bool),
			bless:   make(map[types.Object]bool),
			addr:    make(map[types.Object]bool),
		}
		s.seedLitParams(env, sub, lit, n.Call.Args, true)
		s.analyzeBody(sub, lit.Body)
	} else if !s.emit {
		for _, callee := range s.prog.CallGraph.Callees(env.pkg.Info, n.Call) {
			if s.byObj[callee] != nil {
				s.candMeet(callee, Lockset{})
				s.recordArgFacts(env, callee, n.Call, false, true)
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

// inherit builds a sub-environment that shares the unit and local facts of
// env but snapshots the given lockset as its entry.
func (env *bodyEnv) inherit(held Lockset) *bodyEnv {
	return &bodyEnv{
		fn:      env.fn,
		pkg:     env.pkg,
		unit:    env.unit,
		ctxs:    env.ctxs,
		entry:   held.clone(),
		freshOK: env.freshOK,
		fresh:   env.fresh,
		taint:   env.taint,
		bless:   env.bless,
		addr:    env.addr,
		waits:   env.waits,
	}
}

// seedLitParams maps taint/blessing facts from call arguments onto a
// literal's parameters. Taint survives a spawn — a shard index is a value,
// copied at the go statement — but blessing does not: storage that was
// fresh or confined when the spawner ran is published by the spawn itself,
// and the goroutine touches it only after the spawner has moved on.
func (s *concSolver) seedLitParams(env *bodyEnv, sub *bodyEnv, lit *ast.FuncLit, args []ast.Expr, spawn bool) {
	if lit.Type.Params == nil {
		return
	}
	i := 0
	for _, field := range lit.Type.Params.List {
		for _, name := range field.Names {
			v, _ := env.pkg.Info.Defs[name].(*types.Var)
			if v == nil {
				i++
				continue
			}
			if pointerFreeType(v.Type()) {
				sub.bless[v] = true
			}
			if i < len(args) {
				if s.taintedExpr(env, args[i]) {
					sub.taint[v] = true
				}
				if !spawn && s.blessedExpr(env, args[i]) {
					sub.bless[v] = true
				}
			}
			i++
		}
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
		s.walkExpr(env, e.X, held, exprCtx{blessed: ctx.blessed})
	case *ast.IndexExpr:
		inner := exprCtx{write: ctx.write, blessed: ctx.blessed || s.taintedExpr(env, e.Index)}
		s.walkExpr(env, e.X, held, inner)
		s.walkExpr(env, e.Index, held, exprCtx{})
	case *ast.SliceExpr:
		s.walkExpr(env, e.X, held, exprCtx{write: ctx.write, blessed: ctx.blessed})
		s.walkExpr(env, e.Low, held, exprCtx{})
		s.walkExpr(env, e.High, held, exprCtx{})
		s.walkExpr(env, e.Max, held, exprCtx{})
	case *ast.StarExpr:
		s.walkExpr(env, e.X, held, ctx)
	case *ast.UnaryExpr:
		s.walkExpr(env, e.X, held, exprCtx{write: ctx.write && e.Op == token.AND, blessed: ctx.blessed})
	case *ast.BinaryExpr:
		s.walkExpr(env, e.X, held, exprCtx{blessed: ctx.blessed})
		s.walkExpr(env, e.Y, held, exprCtx{blessed: ctx.blessed})
	case *ast.TypeAssertExpr:
		s.walkExpr(env, e.X, held, ctx)
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
		s.walkCall(env, e, held, ctx)
	}
}

// walkCall handles every call-shaped expression: conversions, len/cap
// blessing, sync.Once bodies, immediately invoked and escaping literals,
// executed call-site collection, and receiver/argument traversal.
func (s *concSolver) walkCall(env *bodyEnv, call *ast.CallExpr, held Lockset, ctx exprCtx) {
	info := env.pkg.Info
	fun := ast.Unparen(call.Fun)

	// Conversion: the operand keeps the surrounding context.
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		for _, arg := range call.Args {
			s.walkExpr(env, arg, held, exprCtx{blessed: ctx.blessed})
		}
		return
	}
	// len/cap read only the header: bless the operand access (a shard
	// geometry computation may measure a confined slice without touching
	// its elements).
	if id, ok := fun.(*ast.Ident); ok && (id.Name == "len" || id.Name == "cap") {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			for _, arg := range call.Args {
				s.walkExpr(env, arg, held, exprCtx{blessed: true})
			}
			return
		}
	}
	// Immediately invoked literal: inherits everything.
	if lit, ok := fun.(*ast.FuncLit); ok {
		sub := env.inherit(held)
		s.analyzeBody(sub, lit.Body)
	} else {
		// once.Do(func(){...}): the body runs under the Once's own
		// exclusion key in the caller's context.
		if onceObj := onceDoTarget(info, call); onceObj != nil {
			if lit, ok := ast.Unparen(call.Args[0]).(*ast.FuncLit); ok {
				entry := held.clone()
				entry[onceObj] = ModeExcl
				sub := env.inherit(entry)
				sub.entry = entry
				s.analyzeBody(sub, lit.Body)
				if sel, ok := fun.(*ast.SelectorExpr); ok {
					s.walkExpr(env, sel.X, held, exprCtx{})
				}
				return
			}
		}
		s.walkCallSite(env, call, held)
		if sel, ok := fun.(*ast.SelectorExpr); ok {
			// Method receiver (or package qualifier — resolves to nothing).
			s.walkExpr(env, sel.X, held, exprCtx{blessed: ctx.blessed})
		}
	}
	inherit := inheritsLitArg(info, call)
	for _, arg := range call.Args {
		if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
			if inherit {
				sub := env.inherit(held)
				s.analyzeBody(sub, lit.Body)
			} else {
				s.descendStoredLit(env, lit)
			}
			continue
		}
		s.walkExpr(env, arg, held, exprCtx{})
	}
}

// descendStoredLit analyzes a literal that escapes the current region —
// stored, returned, or passed to a callee that may hold it — as an
// external callback: unknown context, no locks, no freshness.
func (s *concSolver) descendStoredLit(env *bodyEnv, lit *ast.FuncLit) {
	sub := &bodyEnv{
		fn:  env.fn,
		pkg: env.pkg,
		unit: &concUnit{
			declObj: env.fn.obj,
			label:   env.unit.label + " callback",
			doneWGs: make(map[types.Object]bool),
		},
		ctxs:    map[*Goroutine]bool{s.external: true},
		entry:   Lockset{},
		freshOK: false,
		fresh:   make(map[types.Object]bool),
		taint:   make(map[types.Object]bool),
		bless:   make(map[types.Object]bool),
		addr:    make(map[types.Object]bool),
	}
	s.seedLitParams(env, sub, lit, nil, false)
	s.analyzeBody(sub, lit.Body)
}

// onceDoTarget matches once.Do(f) on a sync.Once field/variable.
func onceDoTarget(info *types.Info, call *ast.CallExpr) types.Object {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Do" || len(call.Args) != 1 {
		return nil
	}
	obj := refObject(info, sel.X)
	if obj == nil || !IsSyncNamed(obj.Type(), "Once") {
		return nil
	}
	return obj
}

// walkCallSite feeds one executed call into the interprocedural fixpoint:
// the callee's entry lockset candidates meet the caller's held set, and
// parameter taint/blessing candidates accumulate with AND semantics. Call
// sites on a freshly constructed receiver are skipped — the callee runs on
// an unshared instance there, which must not weaken the entry lockset its
// shared-instance callers establish.
func (s *concSolver) walkCallSite(env *bodyEnv, call *ast.CallExpr, held Lockset) {
	if s.emit {
		return
	}
	info := env.pkg.Info
	freshRecv := false
	var recvSel ast.Expr
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		// A receiver that is freshly allocated — or that points into the
		// caller's own value storage, like sum.accumulate on a local sum —
		// runs the callee on an unshared instance: the site must not weaken
		// the entry lockset or region its shared-instance callers establish.
		if root := rootIdentObj(info, sel.X); root != nil && env.fresh[root] {
			freshRecv = true
		} else if valueChainRoot(info, sel.X) != nil {
			freshRecv = true
		}
		// Receiver region meets flow only through direct (non-interface)
		// method calls: a devirtualized interface call says nothing about
		// where the implementation's instance lives.
		if tv, ok := info.Types[sel.X]; ok && !types.IsInterface(tv.Type) {
			recvSel = sel.X
		}
	}
	for _, callee := range s.prog.CallGraph.Callees(info, call) {
		if s.byObj[callee] == nil {
			continue
		}
		if freshRecv {
			s.freshCand[callee] |= 1
		} else {
			s.freshCand[callee] |= 2
			s.candMeet(callee, held)
			if sig, ok := callee.Type().(*types.Signature); ok && sig.Recv() != nil {
				if recvSel != nil {
					s.recvMeet(sig.Recv(), s.regionOf(env, recvSel))
				} else {
					// Interface dispatch or method value: instance unknown.
					s.recvBad[sig.Recv()] = true
					s.recvSeen[sig.Recv()] = true
				}
			}
		}
		s.recordArgFacts(env, callee, call, freshRecv, false)
	}
}

// recvMeet accumulates the receiver-region candidate for one callee
// receiver: all known call sites must agree on a non-nil region.
func (s *concSolver) recvMeet(recv *types.Var, reg types.Type) {
	if reg == nil {
		s.recvBad[recv] = true
		return
	}
	if !s.recvSeen[recv] {
		s.recvCand[recv] = reg
		s.recvSeen[recv] = true
		return
	}
	if !types.Identical(s.recvCand[recv], reg) {
		s.recvBad[recv] = true
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

// recordArgFacts accumulates per-parameter must-facts across call sites.
// A spawn site keeps taint (a shard index is a value, copied at the go
// statement) but never contributes blessing: the spawner's fresh or
// confined storage is published by the spawn itself, and the goroutine
// runs only after the spawner has moved on.
func (s *concSolver) recordArgFacts(env *bodyEnv, callee *types.Func, call *ast.CallExpr, freshRecv, spawn bool) {
	sig, ok := callee.Type().(*types.Signature)
	if !ok {
		return
	}
	note := func(v *types.Var, tainted, blessed bool) {
		if tainted {
			s.taintCand[v] |= 1
		} else {
			s.taintCand[v] |= 2
		}
		if blessed && !spawn {
			s.blessCand[v] |= 1
		} else {
			s.blessCand[v] |= 2
		}
	}
	if recv := sig.Recv(); recv != nil {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			blessed := freshRecv || s.blessedExpr(env, sel.X)
			note(recv, s.taintedExpr(env, sel.X), blessed)
		}
	}
	params := sig.Params()
	if sig.Variadic() || params.Len() != len(call.Args) {
		// Shapes the simple positional mapping cannot cover keep their
		// parameters unblessed.
		for i := 0; i < params.Len(); i++ {
			note(params.At(i), false, false)
		}
		return
	}
	for i := 0; i < params.Len(); i++ {
		arg := call.Args[i]
		note(params.At(i), s.taintedExpr(env, arg), s.blessedExpr(env, arg))
	}
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
	s.emitAccess(env, id.Pos(), v, held, ctx.write, false, ctx.blessed, nil)
}

// record records a field access reached through a selector.
func (s *concSolver) record(env *bodyEnv, sel *ast.SelectorExpr, v *types.Var, held Lockset, ctx exprCtx) {
	if !s.emit || !v.IsField() {
		return
	}
	root := rootIdentObj(env.pkg.Info, sel.X)
	fresh := (root != nil && env.fresh[root]) || s.privateRoot(env, sel.X) != nil
	blessed := ctx.blessed ||
		(root != nil && env.bless[root]) ||
		s.chainHasConfined(env, sel.X)
	s.emitAccess(env, sel.Sel.Pos(), v, held, ctx.write, fresh, blessed, s.regionOf(env, sel.X))
}

func (s *concSolver) emitAccess(env *bodyEnv, pos token.Pos, v *types.Var, held Lockset, write, fresh, blessed bool, region types.Type) {
	if syncGuardedType(v.Type()) {
		return
	}
	var joined map[types.Object]bool
	for _, w := range env.waits {
		if w.pos < pos {
			if joined == nil {
				joined = make(map[types.Object]bool)
			}
			joined[w.wg] = true
		}
	}
	s.accesses = append(s.accesses, &ConcAccess{
		Obj:      v,
		Pos:      pos,
		Position: env.pkg.Fset.Position(pos),
		Pkg:      env.pkg,
		FnLabel:  env.unit.label,
		Write:    write,
		Fresh:    fresh,
		Confined: blessed,
		Region:   region,
		Locks:    held.clone(),
		Joined:   joined,
		Ctxs:     env.ctxs,
		unit:     env.unit,
	})
}

// chainHasConfined reports whether the base expression itself goes through
// a confined field: an access chained behind a confined checkpoint (e.g.
// the .live behind e.nodes[u]) is covered by the inner access's own
// verdict and must not double-report.
func (s *concSolver) chainHasConfined(env *bodyEnv, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if v, ok := env.pkg.Info.Uses[sel.Sel].(*types.Var); ok && s.confined[v] != nil {
				found = true
				return false
			}
		}
		return !found
	})
	return found
}
