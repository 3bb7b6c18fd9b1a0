package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is the framework's allocation layer: a per-function classifier
// that reports every construct in a body that can reach the allocator. It
// lets analyzers answer "does this function allocate on the heap, and why"
// statically — the question the hotalloc analyzer asks of every function
// reachable from a //vet:hotpath root — where dynamic alloc counting
// (testing.AllocsPerRun over whichever branches one n and seed happen to hit)
// cannot.
//
// The classifier attempts no escape proof: a make, new, &T{...} or []T{...}
// is taken to outlive its frame wherever it stands. The one ownership
// judgement it makes is the pooled-slab append.
//
//   - make(chan)/make(map), map literals, and map-index assignments always
//     allocate;
//   - make([]T, n) allocates, reported separately for constant and
//     non-constant n;
//   - new(T), &T{...}, and []T{...} allocate;
//   - append allocates unless its base is rooted in a parameter or the
//     receiver — the pooled-slab idiom (`o.Msgs = append(o.Msgs, m)`,
//     `o.IDs = append(o.IDs, src.IDs[a:b]...)`) reuses caller-owned capacity
//     and is the hot path's sanctioned append shape;
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

// AllocSites classifies every potential allocation site in decl's body,
// deduplicated by position and sorted in source order. decl must be a
// declaration from pkg with a non-nil body.
func (prog *Program) AllocSites(pkg *Package, decl *ast.FuncDecl) []AllocSite {
	c := &allocClassifier{
		graph:    prog.CallGraph,
		info:     pkg.Info,
		pkgScope: pkg.Types.Scope(),
		seen:     make(map[token.Pos]bool),
		params:   make(map[types.Object]bool),
	}
	c.collectParams(decl.Type, decl.Recv)
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			c.collectParams(lit.Type, nil)
		}
		return true
	})
	c.classify(decl.Body)
	sort.Slice(c.sites, func(i, j int) bool { return c.sites[i].Pos < c.sites[j].Pos })
	return c.sites
}

type allocClassifier struct {
	graph    *CallGraph
	info     *types.Info
	pkgScope *types.Scope
	sites    []AllocSite
	seen     map[token.Pos]bool
	// params holds the parameter, receiver and named-result objects of the
	// declaration and of every literal within it.
	params map[types.Object]bool
}

func (c *allocClassifier) report(pos token.Pos, format string, args ...any) {
	if c.seen[pos] {
		return
	}
	c.seen[pos] = true
	c.sites = append(c.sites, AllocSite{Pos: pos, What: fmt.Sprintf(format, args...)})
}

func (c *allocClassifier) collectParams(ft *ast.FuncType, recv *ast.FieldList) {
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

// callerOwned reports whether e is rooted in storage this frame does not
// own: a parameter or the receiver. A pointer-free by-value parameter is
// the frame's own copy and does not count.
func (c *allocClassifier) callerOwned(e ast.Expr) bool {
	root := rootIdentObj(c.info, e)
	return root != nil && c.params[root] && !pointerFreeType(root.Type())
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
			c.classifyCompositeLit(n)
			// Element expressions are visited by the enclosing Inspect.
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if lit, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					c.report(n.Pos(), "escaping composite literal address (&%s{...})", typeLabel(c.info, lit))
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

func (c *allocClassifier) classifyCompositeLit(n *ast.CompositeLit) {
	t := c.info.TypeOf(n)
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Slice:
		c.report(n.Pos(), "escaping slice literal")
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
	for _, fn := range c.graph.Callees(c.info, call) {
		if c.graph.SourceOf(fn) == nil && fn.Pkg() != nil && allocPkgs[fn.Pkg().Path()] {
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
			if c.makeSizeConstant(call) {
				c.report(call.Pos(), "escaping make (constant size but leaks the frame)")
			} else {
				c.report(call.Pos(), "make with non-constant size allocates")
			}
		}
	case "new":
		c.report(call.Pos(), "escaping new(T)")
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
