package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is the framework's escape/allocation layer: an interprocedural
// leak analysis over the loaded program plus a per-function allocation-site
// classifier built on top of it. Together they let analyzers answer "does
// this function allocate on the heap, and why" statically — the question the
// hotalloc analyzer asks of every function reachable from a //vet:hotpath
// root — where dynamic alloc counting (testing.AllocsPerRun over whichever
// branches one n and seed happen to hit) cannot.
//
// The leak half (SolveEscape) is object-based and flow-insensitive, the same
// coarsening the taint engine uses: a types.Object is "leaked" when the data
// it binds may outlive its function's frame — it is returned, stored into a
// field, global, map, or channel, captured by a function literal, passed to
// a go statement, or passed as an argument to a parameter the callee leaks.
// Per-function parameter-leak summaries (receiver first) propagate through
// the CHA call graph to a fixpoint, so `u := make(...); helper(u)` leaks u
// exactly when helper retains its argument, any number of calls deep.
// Assignment edges propagate leaks backward (w := v; return w leaks v), and
// only objects whose types can carry pointers participate: a struct of plain
// integers (protocol.FlatMsg, peer.ID) cannot pin heap memory, so copying it
// around never constitutes a leak.
//
// The classifier half (AllocSites) walks one function body and reports every
// construct that can reach the allocator, using the leak fixpoint to prove
// the innocent ones innocent:
//
//   - make(chan)/make(map), map literals, and map-index assignments always
//     allocate;
//   - make([]T, n) with non-constant n always allocates; with constant n it
//     allocates only when the bound object leaks (a provably stack-local
//     constant-size make is free);
//   - new(T), &T{...}, and []T{...} allocate only when they escape (bound to
//     a leaked object, passed to a leaking parameter, returned, or used in a
//     leaking position);
//   - append allocates unless its base is rooted in a parameter, receiver,
//     or package variable — the pooled-slab idiom (`o.Msgs = append(o.Msgs,
//     m)`, `o.IDs = append(o.IDs, src.IDs[a:b]...)`) reuses caller-owned
//     capacity and is the hot path's sanctioned append shape;
//   - boxing a concrete non-pointer-shaped value into an interface
//     (assignment, call argument, or return) allocates, as does a variadic
//     call that materializes its argument slice, string concatenation, and
//     string<->[]byte/[]rune conversions;
//   - go statements and capturing closures allocate by construction;
//   - calls into allocating stdlib packages (fmt, errors, strings, sort,
//     encoding/json, ...) are allocation sites at the call — their bodies
//     are export data, so the call graph cannot descend into them.
//
// Known under-approximations, accepted deliberately: calls through function
// values resolve to no callees (CHA's documented blind spot), and calls into
// stdlib packages outside the allocator list (math/bits, sync, encoding/
// binary, container/heap internals) are treated as allocation-free. The
// heap.Push caller-side boxing is still caught — the any-conversion happens
// at the call site.

// AllocSite is one statically classified allocation site.
type AllocSite struct {
	// Pos locates the allocating construct.
	Pos token.Pos
	// What explains the classification ("make with non-constant size", ...).
	What string
}

// allocPkgs are stdlib packages whose exported functions are treated as
// allocation sites at the call: their bodies are export data (the call graph
// cannot descend), and their common entry points allocate. encoding/binary,
// math/bits, sync, and sync/atomic are deliberately absent — their hot
// entry points (PutUint32, TrailingZeros, atomic loads) are allocation-free
// and legitimate on hot paths.
var allocPkgs = map[string]bool{
	"bufio":         true,
	"encoding/json": true,
	"errors":        true,
	"fmt":           true,
	"io":            true,
	"log":           true,
	"log/slog":      true,
	"net":           true,
	"os":            true,
	"reflect":       true,
	"sort":          true,
	"strconv":       true,
	"strings":       true,
}

// EscapeResult is the solved interprocedural leak fixpoint. It is built once
// per Program (see Program.Escape) and is read-only afterwards.
type EscapeResult struct {
	graph  *CallGraph
	leaked map[types.Object]bool
	// leaks is the per-function parameter-leak summary, receiver first.
	leaks map[*types.Func][]bool
	// edges[dst] lists the objects whose data flows into dst by assignment;
	// a leak of dst propagates backward onto them.
	edges map[types.Object][]types.Object
	// carries memoizes carriesPointers per type.
	carries map[types.Type]bool
}

// Escape returns the program's escape/allocation fixpoint, solving it on
// first use and sharing it across passes.
func (prog *Program) Escape() *EscapeResult {
	return prog.Shared("framework.escape", func() any {
		return SolveEscape(prog)
	}).(*EscapeResult)
}

// Leaked reports whether obj's bound data may outlive its function's frame.
func (r *EscapeResult) Leaked(obj types.Object) bool { return r.leaked[obj] }

// ParamLeaks returns fn's parameter-leak summary (receiver first), or nil
// when fn was not loaded from source.
func (r *EscapeResult) ParamLeaks(fn *types.Func) []bool { return r.leaks[fn] }

// escFunc is one source function participating in the fixpoint.
type escFunc struct {
	pkg    *Package
	fn     *types.Func
	body   *ast.BlockStmt
	params []types.Object
}

// SolveEscape runs the leak analysis to fixpoint over every source function
// of the program.
func SolveEscape(prog *Program) *EscapeResult {
	r := &EscapeResult{
		graph:   prog.CallGraph,
		leaked:  make(map[types.Object]bool),
		leaks:   make(map[*types.Func][]bool),
		edges:   make(map[types.Object][]types.Object),
		carries: make(map[types.Type]bool),
	}
	var fns []escFunc
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn := FuncOf(pkg, fd)
				if fn == nil {
					continue
				}
				params := paramObjects(fn)
				r.leaks[fn] = make([]bool, len(params))
				fns = append(fns, escFunc{pkg: pkg, fn: fn, body: fd.Body, params: params})
			}
		}
	}
	// Transfer passes alternate with backward edge propagation until the
	// summaries stop changing. Leaks only ever grow, so this terminates; the
	// bound is a safety net sized like the taint engine's.
	for pass := 0; pass < 64; pass++ {
		for _, ef := range fns {
			r.scan(ef.pkg, ef.body, pass == 0)
		}
		r.propagateEdges()
		if !r.refreshSummaries(fns) {
			return r
		}
	}
	return r
}

// paramObjects returns fn's receiver (if any) followed by its parameters.
func paramObjects(fn *types.Func) []types.Object {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	var out []types.Object
	if recv := sig.Recv(); recv != nil {
		out = append(out, recv)
	}
	for i := 0; i < sig.Params().Len(); i++ {
		out = append(out, sig.Params().At(i))
	}
	return out
}

// refreshSummaries recomputes every function's parameter-leak bits from the
// leaked set, reporting whether any bit rose.
func (r *EscapeResult) refreshSummaries(fns []escFunc) bool {
	changed := false
	for _, ef := range fns {
		bits := r.leaks[ef.fn]
		for i, p := range ef.params {
			if !bits[i] && r.leaked[p] {
				bits[i] = true
				changed = true
			}
		}
	}
	return changed
}

// propagateEdges closes the leaked set backward over assignment edges. The
// closure of a set is order-independent, but the worklist is still seeded in
// declaration order to keep every intermediate state reproducible.
func (r *EscapeResult) propagateEdges() {
	work := make([]types.Object, 0, len(r.leaked))
	for obj := range r.leaked {
		work = append(work, obj)
	}
	sort.Slice(work, func(i, j int) bool { return work[i].Pos() < work[j].Pos() })
	for len(work) > 0 {
		obj := work[len(work)-1]
		work = work[:len(work)-1]
		for _, src := range r.edges[obj] {
			if !r.leaked[src] {
				r.leaked[src] = true
				work = append(work, src)
			}
		}
	}
}

// markLeaked leaks every root of e.
func (r *EscapeResult) markLeaked(info *types.Info, e ast.Expr) {
	for _, obj := range r.rootsOf(info, e, nil) {
		r.leaked[obj] = true
	}
}

// scan runs one transfer pass over a function body: it seeds leaks from
// returns, stores, sends, go statements, captures, and leaking call
// arguments, and (on the first pass only) records the static assignment
// edges used for backward propagation.
func (r *EscapeResult) scan(pkg *Package, body *ast.BlockStmt, buildEdges bool) {
	info := pkg.Info
	pkgScope := pkg.Types.Scope()
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				r.markLeaked(info, res)
			}
		case *ast.SendStmt:
			r.markLeaked(info, n.Value)
		case *ast.GoStmt:
			// The spawned call's receiver and arguments outlive this frame.
			r.markLeaked(info, n.Call.Fun)
			for _, arg := range n.Call.Args {
				r.markLeaked(info, arg)
			}
		case *ast.DeferStmt:
			// Deferred calls run on this frame; treat like a normal call.
			r.flowCall(info, n.Call)
		case *ast.CallExpr:
			r.flowCall(info, n)
		case *ast.FuncLit:
			// Captured outer variables may be referenced after this frame
			// returns (the literal can escape): leak them.
			r.leakCaptures(info, pkgScope, n)
		case *ast.AssignStmt:
			r.flowAssign(info, pkgScope, n, buildEdges)
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if i < len(n.Values) {
					r.flowPair(info, pkgScope, name, n.Values[i], buildEdges)
				}
			}
		case *ast.RangeStmt:
			// Key/value bind (possibly aliased) element data of X.
			if buildEdges {
				for _, lhs := range []ast.Expr{n.Key, n.Value} {
					id, ok := lhs.(*ast.Ident)
					if !ok {
						continue
					}
					if obj := info.Defs[id]; obj != nil && r.carriesPointers(obj.Type()) {
						r.edges[obj] = append(r.edges[obj], r.rootsOf(info, n.X, nil)...)
					}
				}
			}
		}
		return true
	})
}

// flowAssign applies the leak/edge rules to one assignment statement.
func (r *EscapeResult) flowAssign(info *types.Info, pkgScope *types.Scope, n *ast.AssignStmt, buildEdges bool) {
	if len(n.Rhs) == 1 && len(n.Lhs) > 1 {
		// x, y := f() — call results carry no roots of this frame.
		return
	}
	for i, lhs := range n.Lhs {
		if i >= len(n.Rhs) {
			break
		}
		r.flowPair(info, pkgScope, lhs, n.Rhs[i], buildEdges)
	}
}

// flowPair handles one lhs = rhs pair: a plain local lhs records an
// assignment edge; any other lhs (field, index, dereference, global) is a
// store that leaks the rhs roots.
func (r *EscapeResult) flowPair(info *types.Info, pkgScope *types.Scope, lhs, rhs ast.Expr, buildEdges bool) {
	if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
		if id.Name == "_" {
			return
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj == nil {
			return
		}
		if v, isVar := obj.(*types.Var); isVar && !v.IsField() && obj.Parent() != pkgScope {
			if buildEdges && r.carriesPointers(obj.Type()) {
				r.edges[obj] = append(r.edges[obj], r.rootsOf(info, rhs, nil)...)
			}
			return
		}
	}
	// Store into a non-local location: the rhs data becomes reachable from
	// outside this frame's locals.
	r.markLeaked(info, rhs)
}

// flowCall leaks arguments (and the receiver) that flow into parameters the
// callee leaks — or into unknown callees, conservatively.
func (r *EscapeResult) flowCall(info *types.Info, call *ast.CallExpr) {
	fun := ast.Unparen(call.Fun)
	if tv, ok := info.Types[fun]; ok && (tv.IsType() || tv.IsBuiltin()) {
		// Conversions pass data through (the binding rules see through them
		// via rootsOf); builtins never retain their arguments: append's
		// aliasing is modeled in rootsOf, copy/len/cap/delete/clear do not
		// leak.
		return
	}
	callees := r.graph.Callees(info, call)
	// Receiver argument of a method call.
	var recvExpr ast.Expr
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		if s, found := info.Selections[sel]; found && s.Kind() == types.MethodVal {
			recvExpr = sel.X
		}
	}
	if recvExpr != nil && r.callMayLeakParam(callees, 0) {
		r.markLeaked(info, recvExpr)
	}
	shift := 0
	if recvExpr != nil {
		shift = 1
	}
	for i, arg := range call.Args {
		if r.callMayLeakParam(callees, shift+i) {
			r.markLeaked(info, arg)
		}
	}
}

// callMayLeakParam reports whether any possible callee leaks parameter slot
// idx (receiver-first numbering). Unknown callees (function values) and
// source-less callees leak conservatively, except a small intrinsics list of
// stdlib functions known to only write through their arguments.
func (r *EscapeResult) callMayLeakParam(callees []*types.Func, idx int) bool {
	if len(callees) == 0 {
		return true
	}
	for _, fn := range callees {
		bits, known := r.leaks[fn]
		if !known {
			if nonRetainingStdlib(fn) {
				continue
			}
			return true
		}
		pi := idx
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Variadic() {
			max := len(bits) - 1
			if pi > max {
				pi = max
			}
		}
		if pi >= 0 && pi < len(bits) && bits[pi] {
			return true
		}
	}
	return false
}

// nonRetainingStdlib lists export-data-only functions that provably do not
// retain their arguments: the encoding/binary put/get family the zero-alloc
// codec is built on, and the copy-like byte helpers.
func nonRetainingStdlib(fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil {
		return false
	}
	switch pkg.Path() {
	case "encoding/binary", "math/bits":
		return true
	}
	return false
}

// leakCaptures leaks the outer-scope variables a function literal captures.
// A variable is captured when it is used inside the literal but declared
// outside it (and is not a package-level variable or a field — those are
// reachable without capture).
func (r *EscapeResult) leakCaptures(info *types.Info, pkgScope *types.Scope, lit *ast.FuncLit) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() || v.Parent() == pkgScope {
			return true
		}
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			r.leaked[v] = true
		}
		return true
	})
}

// rootsOf returns the frame-local objects whose heap data e may alias:
// following selectors, indexing, slicing, dereferences, conversions, and
// append chains down to identifiers. Only objects whose types can carry
// pointers are roots — leaking a pure-value struct pins nothing.
func (r *EscapeResult) rootsOf(info *types.Info, e ast.Expr, out []types.Object) []types.Object {
	switch e := e.(type) {
	case *ast.Ident:
		obj := info.Uses[e]
		if obj == nil {
			obj = info.Defs[e]
		}
		if v, ok := obj.(*types.Var); ok && r.carriesPointers(v.Type()) {
			out = append(out, v)
		}
	case *ast.ParenExpr:
		out = r.rootsOf(info, e.X, out)
	case *ast.SelectorExpr:
		out = r.rootsOf(info, e.X, out)
	case *ast.StarExpr:
		out = r.rootsOf(info, e.X, out)
	case *ast.IndexExpr:
		out = r.rootsOf(info, e.X, out)
	case *ast.SliceExpr:
		out = r.rootsOf(info, e.X, out)
	case *ast.TypeAssertExpr:
		out = r.rootsOf(info, e.X, out)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			out = r.rootsOf(info, e.X, out)
		}
	case *ast.CompositeLit:
		for _, elt := range e.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			out = r.rootsOf(info, elt, out)
		}
	case *ast.CallExpr:
		fun := ast.Unparen(e.Fun)
		if tv, ok := info.Types[fun]; ok && tv.IsType() && len(e.Args) == 1 {
			// Conversion: same data, new type.
			return r.rootsOf(info, e.Args[0], out)
		}
		if id, ok := fun.(*ast.Ident); ok {
			if b, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin && b.Name() == "append" {
				// The result aliases the base's backing array and holds the
				// appended elements.
				for _, arg := range e.Args {
					out = r.rootsOf(info, arg, out)
				}
			}
		}
		// Other call results are fresh from this frame's point of view.
	}
	return out
}

// carriesPointers reports whether a value of type t can hold a reference to
// heap memory. Pure-value types (integers, structs and arrays of them)
// cannot leak anything no matter where they are copied.
func (r *EscapeResult) carriesPointers(t types.Type) bool {
	if t == nil {
		return false
	}
	if v, ok := r.carries[t]; ok {
		return v
	}
	// Seed false to break cycles: a type can only recurse into itself
	// through a pointer-shaped component, which answers true on its own.
	r.carries[t] = false
	v := false
	switch u := t.Underlying().(type) {
	case *types.Basic:
		v = u.Kind() == types.String || u.Kind() == types.UnsafePointer
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Signature, *types.Interface:
		v = true
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if r.carriesPointers(u.Field(i).Type()) {
				v = true
				break
			}
		}
	case *types.Array:
		v = r.carriesPointers(u.Elem())
	default:
		v = true // type parameters and anything unforeseen: be conservative
	}
	r.carries[t] = v
	return v
}

// ---------------------------------------------------------------------------
// Allocation-site classification.

// AllocSites classifies every potential allocation site in fn's body,
// deduplicated by position and sorted in source order. decl must be a
// declaration from pkg with a non-nil body.
func (r *EscapeResult) AllocSites(pkg *Package, decl *ast.FuncDecl) []AllocSite {
	c := &allocClassifier{
		r:        r,
		info:     pkg.Info,
		pkgScope: pkg.Types.Scope(),
		seen:     make(map[token.Pos]bool),
		bound:    make(map[ast.Expr]types.Object),
		argOf:    make(map[ast.Expr]*ast.CallExpr),
		pooled:   make(map[types.Object]bool),
		params:   make(map[types.Object]bool),
	}
	c.prescan(decl)
	c.classify(decl.Body)
	sort.Slice(c.sites, func(i, j int) bool { return c.sites[i].Pos < c.sites[j].Pos })
	return c.sites
}

type allocClassifier struct {
	r        *EscapeResult
	info     *types.Info
	pkgScope *types.Scope
	sites    []AllocSite
	seen     map[token.Pos]bool

	// bound maps an allocation expression to the local it initializes;
	// argOf maps one passed directly as a call argument to the call.
	bound map[ast.Expr]types.Object
	argOf map[ast.Expr]*ast.CallExpr
	// pooled marks locals holding caller-owned (parameter/receiver/global
	// rooted) storage; params holds the function's own parameter objects.
	pooled map[types.Object]bool
	params map[types.Object]bool
}

func (c *allocClassifier) report(pos token.Pos, format string, args ...any) {
	if c.seen[pos] {
		return
	}
	c.seen[pos] = true
	c.sites = append(c.sites, AllocSite{Pos: pos, What: fmt.Sprintf(format, args...)})
}

// prescan records binding contexts (local := allocExpr, f(allocExpr)),
// parameter objects (of the declaration and every literal within), and the
// pooled-local set.
func (c *allocClassifier) prescan(decl *ast.FuncDecl) {
	collectParams := func(ft *ast.FuncType, recv *ast.FieldList) {
		for _, fl := range []*ast.FieldList{recv, ft.Params, ft.Results} {
			if fl == nil {
				continue
			}
			for _, field := range fl.List {
				for _, name := range field.Names {
					if obj := c.info.Defs[name]; obj != nil {
						c.params[obj] = true
					}
				}
			}
		}
	}
	collectParams(decl.Type, decl.Recv)
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			collectParams(n.Type, nil)
		case *ast.AssignStmt:
			if len(n.Rhs) == 1 && len(n.Lhs) > 1 {
				return true
			}
			for i, lhs := range n.Lhs {
				if i >= len(n.Rhs) {
					break
				}
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
					obj := c.info.Defs[id]
					if obj == nil {
						obj = c.info.Uses[id]
					}
					if obj != nil {
						c.bound[ast.Unparen(n.Rhs[i])] = obj
					}
				}
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if i < len(n.Values) {
					if obj := c.info.Defs[name]; obj != nil {
						c.bound[ast.Unparen(n.Values[i])] = obj
					}
				}
			}
		case *ast.CallExpr:
			for _, arg := range n.Args {
				c.argOf[ast.Unparen(arg)] = n
			}
		}
		return true
	})
	// Pooled locals: assigned from expressions rooted in a parameter,
	// receiver, global, or another pooled local. Two passes close short
	// local chains (cur := e.outboxes; b := cur).
	for pass := 0; pass < 2; pass++ {
		for rhs, obj := range c.bound {
			if c.pooled[obj] {
				continue
			}
			for _, root := range c.r.rootsOf(c.info, rhs, nil) {
				if c.params[root] || root.Parent() == c.pkgScope || c.pooled[root] {
					c.pooled[obj] = true
					break
				}
			}
		}
	}
}

// callerOwned reports whether e is rooted in storage this frame does not
// own: a parameter, receiver, package variable, or a pooled local.
func (c *allocClassifier) callerOwned(e ast.Expr) bool {
	for _, root := range c.r.rootsOf(c.info, e, nil) {
		if c.params[root] || root.Parent() == c.pkgScope || c.pooled[root] {
			return true
		}
	}
	return false
}

// escapes decides whether a fresh allocation expression outlives the frame:
// bound to a local, it escapes iff the local leaks; passed directly as an
// argument, iff the callee leaks that parameter; anything else (returned,
// stored, sent, compared...) is treated as escaping.
func (c *allocClassifier) escapes(e ast.Expr) bool {
	if obj, ok := c.bound[e]; ok {
		return c.r.leaked[obj]
	}
	if call, ok := c.argOf[e]; ok {
		callees := c.r.graph.Callees(c.info, call)
		shift := 0
		if sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr); isSel {
			if s, found := c.info.Selections[sel]; found && s.Kind() == types.MethodVal {
				shift = 1
			}
		}
		for i, arg := range call.Args {
			if ast.Unparen(arg) == e {
				return c.r.callMayLeakParam(callees, shift+i)
			}
		}
	}
	return true
}

// classify walks one body reporting allocation sites. Non-invoked function
// literals are reported as closure sites and not descended into (their
// bodies run through whatever calls the value — a dynamic edge the call
// graph cannot follow); immediately-invoked and deferred literals run on
// this frame and are descended.
func (c *allocClassifier) classify(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			c.report(n.Pos(), "go statement allocates a goroutine")
			return false
		case *ast.DeferStmt:
			if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
				c.classify(lit.Body)
				return false
			}
			return true
		case *ast.FuncLit:
			if cap := c.captured(n); cap != "" {
				c.report(n.Pos(), "function literal captures %s (closure allocation)", cap)
			}
			return false
		case *ast.CallExpr:
			if lit, ok := ast.Unparen(n.Fun).(*ast.FuncLit); ok {
				c.classify(lit.Body)
				for _, arg := range n.Args {
					c.classifyExpr(arg)
				}
				return false
			}
			c.classifyCall(n)
		case *ast.AssignStmt:
			c.classifyAssign(n)
		case *ast.CompositeLit:
			c.classifyCompositeLit(n, false)
			// Element expressions are visited by the enclosing Inspect.
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if lit, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					if c.escapesOuter(n) {
						c.report(n.Pos(), "escaping composite literal address (&%s{...})", typeLabel(c.info, lit))
					}
					// The literal's own value-ness is subsumed by the &.
					for _, elt := range lit.Elts {
						c.classifyExpr(elt)
					}
					return false
				}
			}
		case *ast.BinaryExpr:
			c.classifyBinary(n)
		}
		return true
	})
}

// classifyExpr applies classify to a bare expression.
func (c *allocClassifier) classifyExpr(e ast.Expr) {
	c.classify(&ast.BlockStmt{List: []ast.Stmt{&ast.ExprStmt{X: e}}})
}

// escapesOuter is escapes() keyed on the outermost allocating expression
// (the &lit node rather than the literal).
func (c *allocClassifier) escapesOuter(e ast.Expr) bool { return c.escapes(ast.Unparen(e)) }

func (c *allocClassifier) classifyBinary(n *ast.BinaryExpr) {
	if n.Op != token.ADD {
		return
	}
	if tv, ok := c.info.Types[n]; ok && tv.Value == nil {
		if b, isBasic := tv.Type.Underlying().(*types.Basic); isBasic && b.Info()&types.IsString != 0 {
			c.report(n.Pos(), "string concatenation allocates")
		}
	}
}

func (c *allocClassifier) classifyAssign(n *ast.AssignStmt) {
	for _, lhs := range n.Lhs {
		if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
			if t := c.info.TypeOf(idx.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					c.report(lhs.Pos(), "map assignment may allocate (bucket growth)")
				}
			}
		}
	}
	if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 {
		if t := c.info.TypeOf(n.Lhs[0]); t != nil {
			if b, isBasic := t.Underlying().(*types.Basic); isBasic && b.Info()&types.IsString != 0 {
				c.report(n.Pos(), "string concatenation allocates")
			}
		}
	}
	// Interface boxing through assignment: concrete non-pointer-shaped rhs
	// into interface-typed lhs. Multi-value forms (x, ok := v.(T), x, y :=
	// f()) pass values through without a conversion step.
	if (n.Tok == token.ASSIGN || n.Tok == token.DEFINE) && len(n.Lhs) == len(n.Rhs) {
		for i, lhs := range n.Lhs {
			lt := c.info.TypeOf(lhs)
			if lt == nil && n.Tok == token.DEFINE {
				continue // inferred type equals rhs type: no boxing
			}
			c.checkBox(lt, n.Rhs[i])
		}
	}
}

// checkBox reports rhs when assigning/passing it to an interface-typed
// destination boxes a concrete non-pointer-shaped value.
func (c *allocClassifier) checkBox(dst types.Type, rhs ast.Expr) {
	if dst == nil || !types.IsInterface(dst) {
		return
	}
	rt := c.info.TypeOf(rhs)
	if rt == nil || types.IsInterface(rt) {
		return
	}
	if _, isTuple := rt.(*types.Tuple); isTuple {
		return // multi-value expression in a single-assign context
	}
	if b, isBasic := rt.Underlying().(*types.Basic); isBasic &&
		(b.Kind() == types.UntypedNil || b.Kind() == types.Invalid) {
		return
	}
	if tv, ok := c.info.Types[rhs]; ok && tv.Value != nil {
		return // constants box to interned values in practice; skip the noise
	}
	switch rt.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return // pointer-shaped: boxes without allocating
	}
	c.report(rhs.Pos(), "%s boxed into interface (allocates)", typeString(rt))
}

func (c *allocClassifier) classifyCompositeLit(n *ast.CompositeLit, addressed bool) {
	t := c.info.TypeOf(n)
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Slice:
		if c.escapes(n) {
			c.report(n.Pos(), "escaping slice literal")
		} else if len(n.Elts) > 0 {
			// Non-escaping constant-size backing array: stack-allocated.
		}
	case *types.Map:
		c.report(n.Pos(), "map literal allocates")
	}
}

func (c *allocClassifier) classifyCall(call *ast.CallExpr) {
	fun := ast.Unparen(call.Fun)
	// Conversions: string <-> []byte/[]rune allocate.
	if tv, ok := c.info.Types[fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			c.checkConversion(call, tv.Type)
		}
		return
	}
	// Builtins: make/new allocate by kind; append by ownership.
	if id, ok := fun.(*ast.Ident); ok {
		if b, isBuiltin := c.info.Uses[id].(*types.Builtin); isBuiltin {
			c.classifyBuiltin(call, b.Name())
			return
		}
	}
	sig, _ := c.info.TypeOf(fun).(*types.Signature)
	if sig != nil {
		c.checkCallBoxing(call, sig)
	}
	// Calls into allocating stdlib packages are sites themselves: the call
	// graph cannot descend into export data.
	for _, fn := range c.r.graph.Callees(c.info, call) {
		if c.r.graph.SourceOf(fn) == nil && fn.Pkg() != nil && allocPkgs[fn.Pkg().Path()] {
			c.report(call.Pos(), "calls %s.%s (allocating stdlib package)", fn.Pkg().Name(), fn.Name())
			break
		}
	}
}

// checkCallBoxing reports interface boxing of arguments and the variadic
// argument slice a call with listed variadic arguments materializes.
func (c *allocClassifier) checkCallBoxing(call *ast.CallExpr, sig *types.Signature) {
	params := sig.Params()
	n := params.Len()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= n-1:
			if call.Ellipsis.IsValid() {
				pt = params.At(n - 1).Type() // spread: slice passed as-is
			} else if sl, ok := params.At(n - 1).Type().(*types.Slice); ok {
				pt = sl.Elem()
			}
		case i < n:
			pt = params.At(i).Type()
		}
		c.checkBox(pt, arg)
	}
	if sig.Variadic() && !call.Ellipsis.IsValid() && len(call.Args) > n-1 {
		c.report(call.Pos(), "variadic call materializes its argument slice")
	}
}

func (c *allocClassifier) checkConversion(call *ast.CallExpr, target types.Type) {
	src := c.info.TypeOf(call.Args[0])
	if src == nil {
		return
	}
	if tv, ok := c.info.Types[call.Args[0]]; ok && tv.Value != nil {
		return // constant conversions fold at compile time
	}
	tb, tIsBasic := target.Underlying().(*types.Basic)
	sb, sIsBasic := src.Underlying().(*types.Basic)
	if tIsBasic && tb.Info()&types.IsString != 0 && isByteOrRuneSlice(src) {
		c.report(call.Pos(), "[]byte/[]rune to string conversion allocates")
	}
	if sIsBasic && sb.Info()&types.IsString != 0 && isByteOrRuneSlice(target) {
		c.report(call.Pos(), "string to []byte/[]rune conversion allocates")
	}
}

func isByteOrRuneSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

func (c *allocClassifier) classifyBuiltin(call *ast.CallExpr, name string) {
	switch name {
	case "make":
		t := c.info.TypeOf(call)
		if t == nil {
			return
		}
		switch t.Underlying().(type) {
		case *types.Map:
			c.report(call.Pos(), "make(map) allocates")
		case *types.Chan:
			c.report(call.Pos(), "make(chan) allocates")
		case *types.Slice:
			if !c.makeSizeConstant(call) {
				c.report(call.Pos(), "make with non-constant size allocates")
			} else if c.escapes(call) {
				c.report(call.Pos(), "escaping make (constant size but leaks the frame)")
			}
		}
	case "new":
		if c.escapes(call) {
			c.report(call.Pos(), "escaping new(T)")
		}
	case "append":
		if len(call.Args) == 0 {
			return
		}
		if !c.callerOwned(call.Args[0]) {
			c.report(call.Pos(), "append to non-pooled slice may grow the backing array")
		}
	}
	// Arguments still need classification (string conversions inside
	// append(dst, string(b)...), etc.).
	for _, arg := range call.Args {
		c.classifyExpr(arg)
	}
}

// makeSizeConstant reports whether every size argument of a make call is a
// compile-time constant.
func (c *allocClassifier) makeSizeConstant(call *ast.CallExpr) bool {
	if len(call.Args) < 2 {
		return false // make([]T) is invalid anyway; be conservative
	}
	for _, arg := range call.Args[1:] {
		tv, ok := c.info.Types[arg]
		if !ok || tv.Value == nil {
			return false
		}
	}
	return true
}

// captured names one variable a literal captures from its enclosing
// function, or "" when it captures nothing (a static closure).
func (c *allocClassifier) captured(lit *ast.FuncLit) string {
	var name string
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if name != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := c.info.Uses[id].(*types.Var)
		if !ok || v.IsField() || v.Parent() == c.pkgScope {
			return true
		}
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			name = v.Name()
		}
		return true
	})
	return name
}

func typeLabel(info *types.Info, lit *ast.CompositeLit) string {
	if t := info.TypeOf(lit); t != nil {
		return typeString(t)
	}
	return "T"
}

func typeString(t types.Type) string {
	s := t.String()
	if i := strings.LastIndex(s, "/"); i >= 0 {
		s = s[i+1:]
	}
	return s
}
