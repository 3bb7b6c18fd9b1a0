// The happens-before/confinement engine: the framework's fifth layer, under
// the sharedguard and shardconfine analyzers. It models the goroutine
// contexts code may run in and the exclusion a Go program establishes —
// mutex locksets and channel token protocols (including the sharded
// engine's gate/work/done barrier dispatch) — and judges every pair of
// accesses to the same shared object constructor-fresh, sequential,
// mutually excluded, or racy.
//
// The engine is deliberately instance-insensitive: a lock or an access is
// keyed by the declared field (or package variable) object, not by the
// runtime instance, exactly like lockreach's receiver-path keys one level
// up. That makes the classification a may-analysis over instances: two
// accesses with a common exclusive lock key are excluded on every instance,
// and two conflicting accesses with no ordering on any instance are
// reported once, at the write.
//
// Three ideas carry the precision the sharded engine needs:
//
//   - Token channels. A capacity-1 channel field that some single function
//     both bare-receives (acquire) and sends (release) is a lock; holding
//     it is ModeExcl, like a mutex. Deferred releases are ignored, so a
//     token acquired under `defer func() { e.gate <- struct{}{} }()` is
//     held to function exit.
//
//   - Barrier-inherited locks. When a goroutine parks on a select case that
//     receives work from channel W and answers on channel D, and some
//     function sends W and bare-receives D (the dispatcher), the locks the
//     dispatcher holds at the send are inherited by the worker region
//     between the W-receive and the D-send — demoted to ModeBarrier. A
//     barrier lock excludes the region against every *real* holder of the
//     same lock (the engine cannot be re-entered while its dispatcher holds
//     the gate), but not against the other workers of the same phase: those
//     run concurrently and must be confined by shard index instead.
//
//   - Confinement. An access indexed by a value tainted from the
//     shard-steal counter stays inside the one worker's shard that stole
//     that index; shardconfine accepts it inside a barrier phase.
package framework

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Goroutine is one static goroutine-creation context: a go statement, or
// the synthetic External context modeling callers outside the loaded
// program (exported API, main, stored callbacks, address-taken methods).
type Goroutine struct {
	Label string
	// External marks the synthetic outside-world context. Two accesses that
	// only ever run externally are treated as sequenced by the caller
	// (exported APIs synchronize internally; the pair rule needs at least
	// one side on a tracked goroutine).
	External bool
}

// ConfinedField is one struct field annotated `//vet:confined shard` or
// `//vet:confined gate`.
type ConfinedField struct {
	Field *types.Var
	// Mode is "shard" (owned by the worker processing the field's shard
	// index between barrier phases) or "gate" (touched only while holding
	// the owning engine's token channel for real).
	Mode string
	Pos  token.Position
}

// ConcAccess is one read or write of a tracked shared object (a struct
// field or package-level variable), with everything the pair classifier
// needs: where, in which goroutine contexts, under which locks, and
// whether the access is provably confined.
type ConcAccess struct {
	Obj      types.Object
	Pos      token.Pos
	Position token.Position
	Pkg      *Package
	FnLabel  string
	Write    bool
	// Fresh: the access runs on an object this function just allocated and
	// has not shared yet (constructor confinement).
	Fresh bool
	// Confined: the access is the base of an index expression whose index
	// is shard-tainted, so it stays inside one worker's shard.
	Confined bool
	// Locks holds the must-held lock keys at the access.
	Locks Lockset
	// Ctxs holds the goroutine contexts the enclosing code may run in.
	Ctxs map[*Goroutine]bool
}

// HoldsToken reports whether the access really holds (ModeExcl) a token
// channel of the concurrency result — the gate, for the sharded engine.
func (a *ConcAccess) HoldsToken(r *ConcurrencyResult) bool {
	for k, m := range a.Locks {
		if m == ModeExcl && r.Tokens[k] {
			return true
		}
	}
	return false
}

// InBarrierPhase reports whether the access runs in a worker region that
// inherited a token across a dispatch barrier — i.e. between receiving a
// phase from the dispatcher and reporting done.
func (a *ConcAccess) InBarrierPhase(r *ConcurrencyResult) bool {
	for k, m := range a.Locks {
		if m == ModeBarrier && r.Tokens[k] {
			return true
		}
	}
	return false
}

// ConcurrencyResult is the program-wide happens-before/confinement model,
// built once per Program (prog.Concurrency()) and shared by analyzers.
type ConcurrencyResult struct {
	// Accesses holds every tracked access in deterministic (file, line,
	// col) order.
	Accesses []*ConcAccess
	// Confined maps annotated field objects to their confinement contract.
	Confined map[types.Object]*ConfinedField
	// Tokens marks the channel objects detected as exclusivity tokens.
	Tokens map[types.Object]bool
}

// Concurrency returns the program's happens-before/confinement model,
// computing it on first use.
func (prog *Program) Concurrency() *ConcurrencyResult {
	return prog.Shared("framework.concurrency", func() any {
		return newConcSolver(prog).solve()
	}).(*ConcurrencyResult)
}

// Racy reports whether the write w and another access o to the same object
// survive every proof: neither runs on a fresh instance, some pair of their
// contexts can overlap, and no common lock excludes them.
func Racy(w, o *ConcAccess) bool {
	return !w.Fresh && !o.Fresh && mayRunConcurrently(w, o) && !locksExclude(w.Locks, o.Locks)
}

// mayRunConcurrently: some context on either side is a tracked goroutine.
// Two accesses that only ever run in external callers are the caller's to
// sequence; a tracked goroutine may overlap with anything, another instance
// of itself included.
func mayRunConcurrently(a, b *ConcAccess) bool {
	for ga := range a.Ctxs {
		for gb := range b.Ctxs {
			if !ga.External || !gb.External {
				return true
			}
		}
	}
	return false
}

// locksExclude: a common key held on both sides, where at least one side
// holds it exclusively. Read-vs-read on an RWMutex does not exclude, and
// neither does barrier-vs-barrier: two workers of the same phase hold the
// same inherited token and still run concurrently.
func locksExclude(a, b Lockset) bool {
	for k, ma := range a {
		if mb, ok := b[k]; ok && (ma == ModeExcl || mb == ModeExcl) {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Solver
// ---------------------------------------------------------------------------

// concFn is the solver's view of one declared function.
type concFn struct {
	pkg   *Package
	decl  *ast.FuncDecl
	obj   *types.Func
	label string
	ctxs  map[*Goroutine]bool
	entry Lockset
	known bool
	root  bool
	// goEntry: some go statement spawns this function directly. Its entry
	// lockset is pinned empty — a fresh goroutine holds nothing — even if
	// other call sites exist.
	goEntry bool
}

// barrierSpec is one detected dispatch barrier: receiving from work starts
// the inherited region, sending done ends it.
type barrierSpec struct {
	work, done types.Object
	locks      Lockset // every key ModeBarrier
}

type concSolver struct {
	prog     *Program
	fns      []*concFn
	byObj    map[*types.Func]*concFn
	tokens   map[types.Object]bool
	confined map[types.Object]*ConfinedField
	external *Goroutine
	litCtx   map[*ast.FuncLit]*Goroutine
	barriers []*barrierSpec

	hasCaller map[*types.Func]bool
	addrTaken map[*types.Func]bool

	// Per-round accumulators.
	cand       map[*types.Func]Lockset
	candSeen   map[*types.Func]bool
	sendHeld   map[types.Object]Lockset // meet of held at sends per chan field
	sendHeldOK map[types.Object]bool

	cfgs map[*ast.BlockStmt]*CFG

	emit     bool
	accesses []*ConcAccess
}

func newConcSolver(prog *Program) *concSolver {
	return &concSolver{
		prog:      prog,
		byObj:     make(map[*types.Func]*concFn),
		tokens:    make(map[types.Object]bool),
		confined:  make(map[types.Object]*ConfinedField),
		external:  &Goroutine{Label: "external caller", External: true},
		litCtx:    make(map[*ast.FuncLit]*Goroutine),
		hasCaller: make(map[*types.Func]bool),
		addrTaken: make(map[*types.Func]bool),
		cfgs:      make(map[*ast.BlockStmt]*CFG),
	}
}

func (s *concSolver) solve() *ConcurrencyResult {
	s.collectFunctions()
	s.collectConfined()
	s.collectTokens()
	s.collectReferences()
	s.seedContexts()
	s.propagateContexts()
	s.lockFixpoint() // phase 1: no barriers
	s.detectBarriers()
	if len(s.barriers) > 0 {
		s.lockFixpoint() // phase 2: barrier regions inherit demoted locks
	}
	s.emit = true
	s.cand, s.candSeen = nil, nil
	for _, fn := range s.fns {
		if fn.known {
			s.runBody(fn)
		}
	}
	sort.Slice(s.accesses, func(i, j int) bool {
		a, b := s.accesses[i].Position, s.accesses[j].Position
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return &ConcurrencyResult{
		Accesses: s.accesses,
		Confined: s.confined,
		Tokens:   s.tokens,
	}
}

func (s *concSolver) collectFunctions() {
	for _, pkg := range s.prog.Packages {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj := FuncOf(pkg, fd)
				if obj == nil {
					continue
				}
				fn := &concFn{
					pkg:   pkg,
					decl:  fd,
					obj:   obj,
					label: funcLabel(obj),
					ctxs:  make(map[*Goroutine]bool),
				}
				s.fns = append(s.fns, fn)
				s.byObj[obj] = fn
			}
		}
	}
}

// collectConfined parses the //vet:confined field directives. The
// directive sits in the field's doc comment group or its trailing line
// comment:
//
//	slots []peer.ID //vet:confined shard
func (s *concSolver) collectConfined() {
	for _, pkg := range s.prog.Packages {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				st, ok := n.(*ast.StructType)
				if !ok {
					return true
				}
				for _, field := range st.Fields.List {
					mode := confinedMode(field.Doc)
					if mode == "" {
						mode = confinedMode(field.Comment)
					}
					if mode == "" {
						continue
					}
					for _, name := range field.Names {
						v, ok := pkg.Info.Defs[name].(*types.Var)
						if !ok {
							continue
						}
						s.confined[v] = &ConfinedField{
							Field: v,
							Mode:  mode,
							Pos:   pkg.Fset.Position(name.Pos()),
						}
					}
				}
				return true
			})
		}
	}
}

func confinedMode(cg *ast.CommentGroup) string {
	if cg == nil {
		return ""
	}
	for _, c := range cg.List {
		if !strings.HasPrefix(c.Text, "//vet:confined") {
			continue
		}
		mode := strings.TrimSpace(strings.TrimPrefix(c.Text, "//vet:confined"))
		if mode == "shard" || mode == "gate" {
			return mode
		}
	}
	return ""
}

// collectTokens detects token channels: a channel-typed field or package
// variable that one function body both bare-receives (acquire) and sends
// (release), deferred literal sends included. The pairing inside a single
// body is what separates a lock token (gate) from barrier plumbing (the
// work/done channels, whose sends and receives live in different
// functions).
func (s *concSolver) collectTokens() {
	for _, fn := range s.fns {
		recv := make(map[types.Object]bool)
		send := make(map[types.Object]bool)
		var walk func(n ast.Node)
		walk = func(n ast.Node) {
			ast.Inspect(n, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.GoStmt:
					return false
				case *ast.FuncLit:
					return false
				case *ast.DeferStmt:
					if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
						walk(lit.Body)
					}
					return false
				case *ast.ExprStmt:
					if u, ok := ast.Unparen(n.X).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
						if obj := chanRefObject(fn.pkg.Info, u.X); obj != nil {
							recv[obj] = true
						}
						return false
					}
				case *ast.SendStmt:
					if obj := chanRefObject(fn.pkg.Info, n.Chan); obj != nil {
						send[obj] = true
					}
				}
				return true
			})
		}
		walk(fn.decl.Body)
		for obj := range recv {
			if send[obj] {
				s.tokens[obj] = true
			}
		}
	}
}

// chanRefObject resolves an expression naming a channel-typed field or
// package-level variable to its declared object, or nil.
func chanRefObject(info *types.Info, e ast.Expr) types.Object {
	obj := refObject(info, e)
	if obj == nil {
		return nil
	}
	if _, ok := obj.Type().Underlying().(*types.Chan); !ok {
		return nil
	}
	return obj
}

// refObject resolves a selector chain or identifier to the final named
// variable object: the field for e.gate or c.srv.mu, the package variable
// for a global, the local for a plain identifier.
func refObject(info *types.Info, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		if v, ok := info.Uses[e.Sel].(*types.Var); ok {
			return v
		}
	case *ast.Ident:
		if v, ok := info.Uses[e].(*types.Var); ok {
			return v
		}
		if v, ok := info.Defs[e].(*types.Var); ok {
			return v
		}
	}
	return nil
}

// collectReferences finds address-taken functions (used as values — stored
// handlers, method values) and marks which functions have any in-program
// caller; functions with neither are external entry points.
func (s *concSolver) collectReferences() {
	for _, pkg := range s.prog.Packages {
		for _, f := range pkg.Files {
			callFuns := make(map[ast.Expr]bool)
			selSels := make(map[*ast.Ident]bool)
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					callFuns[ast.Unparen(n.Fun)] = true
					for _, fn := range s.prog.CallGraph.Callees(pkg.Info, n) {
						s.hasCaller[fn] = true
					}
				case *ast.SelectorExpr:
					selSels[n.Sel] = true
				}
				return true
			})
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if callFuns[n] {
						return true
					}
					if fn, ok := pkg.Info.Uses[n.Sel].(*types.Func); ok {
						s.addrTaken[fn] = true
					}
				case *ast.Ident:
					if callFuns[n] || selSels[n] {
						return true
					}
					if fn, ok := pkg.Info.Uses[n].(*types.Func); ok {
						s.addrTaken[fn] = true
					}
				}
				return true
			})
		}
	}
}

// seedContexts creates one Goroutine per go statement, seeds spawned
// functions with it, and marks external entry points.
func (s *concSolver) seedContexts() {
	for _, fn := range s.fns {
		ast.Inspect(fn.decl.Body, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			g := &Goroutine{}
			if lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit); ok {
				g.Label = fn.label + " goroutine literal"
				s.litCtx[lit] = g
				return true
			}
			for _, callee := range s.prog.CallGraph.Callees(fn.pkg.Info, gs.Call) {
				g.Label = funcLabel(callee)
				if target := s.byObj[callee]; target != nil {
					target.ctxs[g] = true
					target.goEntry = true
				}
			}
			return true
		})
	}
	for _, fn := range s.fns {
		if !s.hasCaller[fn.obj] || s.addrTaken[fn.obj] {
			fn.root = true
			fn.ctxs[s.external] = true
			fn.entry = Lockset{}
			fn.known = true
		}
		if fn.goEntry && !fn.known {
			fn.entry = Lockset{}
			fn.known = true
		}
	}
}

// concEdge is one context-propagation edge: a call from somewhere in a
// function to callee, carrying either the caller's contexts (kind 0), one
// specific goroutine (kind 1), or the external context (kind 2).
type concEdge struct {
	callee *types.Func
	kind   int
	g      *Goroutine
}

const (
	edgeInherit = iota
	edgeGoroutine
	edgeExternal
)

// callEdges walks one function body and produces its context-propagation
// edges, classifying each call by the region it executes in.
func (s *concSolver) callEdges(fn *concFn) []*concEdge {
	var edges []*concEdge
	info := fn.pkg.Info
	add := func(call *ast.CallExpr, kind int, g *Goroutine) {
		for _, callee := range s.prog.CallGraph.Callees(info, call) {
			if s.byObj[callee] != nil {
				edges = append(edges, &concEdge{callee: callee, kind: kind, g: g})
			}
		}
	}
	var walk func(n ast.Node, kind int, g *Goroutine)
	walk = func(n ast.Node, kind int, g *Goroutine) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
					walk(lit.Body, edgeGoroutine, s.litCtx[lit])
				}
				// Non-literal go targets were seeded directly; argument
				// expressions evaluate in the current region.
				for _, arg := range n.Call.Args {
					walk(arg, kind, g)
				}
				return false
			case *ast.DeferStmt:
				if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
					walk(lit.Body, kind, g)
				} else {
					add(n.Call, kind, g)
				}
				for _, arg := range n.Call.Args {
					walk(arg, kind, g)
				}
				return false
			case *ast.CallExpr:
				if lit, ok := ast.Unparen(n.Fun).(*ast.FuncLit); ok {
					walk(lit.Body, kind, g)
				} else {
					add(n, kind, g)
				}
				for _, arg := range n.Args {
					walk(arg, kind, g)
				}
				return false
			case *ast.FuncLit:
				// Stored or passed literal: escapes to callers.
				walk(n.Body, edgeExternal, nil)
				return false
			}
			return true
		})
	}
	walk(fn.decl.Body, edgeInherit, nil)
	return edges
}

// propagateContexts runs the goroutine-context worklist to a fixpoint.
func (s *concSolver) propagateContexts() {
	edges := make(map[*concFn][]*concEdge, len(s.fns))
	for _, fn := range s.fns {
		edges[fn] = s.callEdges(fn)
	}
	changed := true
	for changed {
		changed = false
		for _, fn := range s.fns {
			for _, e := range edges[fn] {
				target := s.byObj[e.callee]
				if target == nil {
					continue
				}
				grow := func(g *Goroutine) {
					if !target.ctxs[g] {
						target.ctxs[g] = true
						changed = true
					}
				}
				switch e.kind {
				case edgeInherit:
					for g := range fn.ctxs {
						grow(g)
					}
				case edgeGoroutine:
					if e.g != nil {
						grow(e.g)
					}
				case edgeExternal:
					grow(s.external)
				}
			}
		}
	}
}

// lockFixpoint computes entry locksets by iterated call-site meets:
// roots start empty, goroutine entries start empty, everything else is the
// intersection of what its callers hold at the call, skipping call sites
// whose receiver is a freshly constructed, unshared object.
func (s *concSolver) lockFixpoint() {
	// Reset non-root entries.
	for _, fn := range s.fns {
		if fn.root || len(fn.ctxs) > 0 && fn.entry != nil && len(fn.entry) == 0 && s.isGoEntry(fn) {
			continue
		}
		if !fn.root && !s.isGoEntry(fn) {
			fn.entry = nil
			fn.known = false
		}
	}
	for round := 0; round < 12; round++ {
		s.cand = make(map[*types.Func]Lockset)
		s.candSeen = make(map[*types.Func]bool)
		s.sendHeld = make(map[types.Object]Lockset)
		s.sendHeldOK = make(map[types.Object]bool)
		for _, fn := range s.fns {
			if fn.known {
				s.runBody(fn)
			}
		}
		changed := false
		for _, fn := range s.fns {
			if fn.root || s.isGoEntry(fn) {
				continue
			}
			meet, seen := s.cand[fn.obj], s.candSeen[fn.obj]
			if !seen {
				continue
			}
			if !fn.known || !equalLocks(fn.entry, meet) {
				fn.entry = meet
				fn.known = true
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	// Anything still unknown is unreachable from any entry; analyze it as
	// an isolated root so its accesses are still collected.
	for _, fn := range s.fns {
		if !fn.known {
			fn.entry = Lockset{}
			fn.known = true
			if len(fn.ctxs) == 0 {
				fn.ctxs[s.external] = true
			}
		}
	}
}

func (s *concSolver) isGoEntry(fn *concFn) bool {
	return fn.goEntry && !fn.root
}

// detectBarriers looks for the dispatch-barrier protocol: a goroutine
// parked on `case p := <-work:` that ends its region with `done <- tok`,
// paired with a dispatcher that sends work and bare-receives done. The
// locks the dispatcher holds at the send — demoted to ModeBarrier — are
// inherited by the region.
func (s *concSolver) detectBarriers() {
	// Which functions send / bare-receive which channel fields.
	sendIn := make(map[types.Object]map[*concFn]bool)
	recvIn := make(map[types.Object]map[*concFn]bool)
	for _, fn := range s.fns {
		info := fn.pkg.Info
		ast.Inspect(fn.decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SendStmt:
				if obj := chanRefObject(info, n.Chan); obj != nil {
					if sendIn[obj] == nil {
						sendIn[obj] = make(map[*concFn]bool)
					}
					sendIn[obj][fn] = true
				}
			case *ast.ExprStmt:
				if u, ok := ast.Unparen(n.X).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
					if obj := chanRefObject(info, u.X); obj != nil {
						if recvIn[obj] == nil {
							recvIn[obj] = make(map[*concFn]bool)
						}
						recvIn[obj][fn] = true
					}
				}
			}
			return true
		})
	}
	seen := make(map[types.Object]bool)
	for _, fn := range s.fns {
		if !s.isGoEntry(fn) {
			continue
		}
		info := fn.pkg.Info
		ast.Inspect(fn.decl.Body, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectStmt)
			if !ok {
				return true
			}
			for _, c := range sel.Body.List {
				cc := c.(*ast.CommClause)
				workObj := commRecvObject(info, cc.Comm)
				if workObj == nil || seen[workObj] {
					continue
				}
				var doneObj types.Object
				for _, st := range cc.Body {
					if sd, ok := st.(*ast.SendStmt); ok {
						if obj := chanRefObject(info, sd.Chan); obj != nil && obj != workObj {
							doneObj = obj
						}
					}
				}
				if doneObj == nil {
					continue
				}
				// A dispatcher sends work and bare-receives done.
				dispatcher := false
				for d := range sendIn[workObj] {
					if recvIn[doneObj][d] {
						dispatcher = true
					}
				}
				if !dispatcher {
					continue
				}
				held, ok := s.sendHeld[workObj]
				if !ok || len(held) == 0 {
					continue
				}
				locks := make(Lockset, len(held))
				for k := range held {
					locks[k] = ModeBarrier
				}
				seen[workObj] = true
				s.barriers = append(s.barriers, &barrierSpec{
					work:  workObj,
					done:  doneObj,
					locks: locks,
				})
			}
			return true
		})
	}
}

// commRecvObject resolves a select comm statement receiving from a channel
// field/var (with or without binding) to the channel object.
func commRecvObject(info *types.Info, comm ast.Stmt) types.Object {
	switch comm := comm.(type) {
	case *ast.AssignStmt:
		if len(comm.Rhs) == 1 {
			if u, ok := ast.Unparen(comm.Rhs[0]).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
				return chanRefObject(info, u.X)
			}
		}
	case *ast.ExprStmt:
		if u, ok := ast.Unparen(comm.X).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
			return chanRefObject(info, u.X)
		}
	}
	return nil
}

func funcLabel(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			return "(" + n.Obj().Name() + ")." + fn.Name()
		}
	}
	return fn.Name()
}
