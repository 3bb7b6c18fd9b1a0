package framework

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// CallGraph is a static call graph spanning every package a Program loaded
// from source, in the class-hierarchy-analysis (CHA) style: a direct call
// resolves to its single static callee, and a call through an interface
// method resolves to that method on every named type in the module whose
// method set implements the interface. Function-valued calls (variables,
// fields, parameters of func type) resolve to nothing — callers must treat
// them as unknown.
//
// The CHA universe is deliberately bounded to the module's own packages
// (import path prefix of the module root): resolving error.Error or
// fmt.Stringer.String against the whole standard library would drown every
// analysis in irrelevant edges, while intra-module interfaces — the
// protocol.StepCore implementations, the loss.Model family, the
// runtime.Sender transports — resolve precisely.
type CallGraph struct {
	modulePrefix string
	// decls maps a function or method object to its source declaration.
	decls map[*types.Func]*FuncSource
	// named is the CHA universe: every named (non-interface) type declared
	// in a module package, source-loaded or imported via export data.
	named []*types.Named
	// implCache memoizes interface-method -> concrete-methods resolution.
	implCache map[*types.Func][]*types.Func
}

// FuncSource locates one function's source: the package it was loaded from
// and its declaration (Decl.Body may be nil for assembly stubs).
type FuncSource struct {
	Pkg  *Package
	Decl *ast.FuncDecl
}

// buildCallGraph indexes declarations and the CHA type universe for the
// given source packages. modulePrefix bounds the universe ("sendforget/");
// an empty prefix admits every package the type-checker saw.
func buildCallGraph(pkgs []*Package, modulePrefix string) *CallGraph {
	g := &CallGraph{
		modulePrefix: modulePrefix,
		decls:        make(map[*types.Func]*FuncSource),
		implCache:    make(map[*types.Func][]*types.Func),
	}
	seenPkg := make(map[*types.Package]bool)
	var collectTypes func(tp *types.Package)
	collectTypes = func(tp *types.Package) {
		if tp == nil || seenPkg[tp] {
			return
		}
		seenPkg[tp] = true
		if g.inUniverse(tp.Path()) {
			scope := tp.Scope()
			for _, name := range scope.Names() {
				tn, ok := scope.Lookup(name).(*types.TypeName)
				if !ok || tn.IsAlias() {
					continue
				}
				if named, ok := tn.Type().(*types.Named); ok {
					if _, isIface := named.Underlying().(*types.Interface); !isIface {
						g.named = append(g.named, named)
					}
				}
			}
		}
		for _, imp := range tp.Imports() {
			collectTypes(imp)
		}
	}
	for _, pkg := range pkgs {
		collectTypes(pkg.Types)
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					g.decls[fn] = &FuncSource{Pkg: pkg, Decl: fd}
				}
			}
		}
	}
	// Fixture packages are loaded under bare directory names with no slash;
	// they are always in the universe (see inUniverse), and sorting keeps
	// CHA resolution order deterministic.
	sort.Slice(g.named, func(i, j int) bool {
		return g.named[i].Obj().Id() < g.named[j].Obj().Id()
	})
	return g
}

func (g *CallGraph) inUniverse(path string) bool {
	return g.modulePrefix == "" || strings.HasPrefix(path, g.modulePrefix) ||
		!strings.Contains(path, "/") // testdata fixture packages
}

// SourceOf returns the source declaration of fn, or nil when fn was loaded
// from export data only (or is synthetic).
func (g *CallGraph) SourceOf(fn *types.Func) *FuncSource {
	if fn == nil {
		return nil
	}
	return g.decls[fn]
}

// FuncOf returns the function object a declaration defines, using the
// declaring package's type info.
func FuncOf(pkg *Package, decl *ast.FuncDecl) *types.Func {
	fn, _ := pkg.Info.Defs[decl.Name].(*types.Func)
	return fn
}

// Callees resolves one call expression against the graph using the calling
// package's type info. It returns the possible callees: exactly one for a
// static call, every CHA-compatible concrete method for an interface call,
// and nil for calls through function values, builtins, and conversions.
func (g *CallGraph) Callees(info *types.Info, call *ast.CallExpr) []*types.Func {
	fun := ast.Unparen(call.Fun)
	// A conversion is not a call.
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		return nil
	}
	switch fun := fun.(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return []*types.Func{fn}
		}
		if fn, ok := info.Defs[fun].(*types.Func); ok {
			return []*types.Func{fn}
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			fn, ok := sel.Obj().(*types.Func)
			if !ok {
				return nil
			}
			if types.IsInterface(sel.Recv()) {
				return g.implementations(sel.Recv(), fn)
			}
			return []*types.Func{fn}
		}
		// Package-qualified function (rng.New, time.Sleep).
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return []*types.Func{fn}
		}
	}
	return nil
}

// implementations performs the CHA step: the concrete methods named like
// method on every universe type whose method set satisfies the interface.
func (g *CallGraph) implementations(recv types.Type, method *types.Func) []*types.Func {
	if cached, ok := g.implCache[method]; ok {
		return cached
	}
	iface, ok := recv.Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	var out []*types.Func
	seen := make(map[*types.Func]bool)
	for _, named := range g.named {
		ptr := types.NewPointer(named)
		if !types.Implements(named, iface) && !types.Implements(ptr, iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(ptr, true, method.Pkg(), method.Name())
		if fn, ok := obj.(*types.Func); ok && !seen[fn] {
			seen[fn] = true
			out = append(out, fn)
		}
	}
	g.implCache[method] = out
	return out
}

// GoroutineEntry resolves the function a go statement launches: the literal
// itself for `go func(){...}()`, the static callee's source for
// `go ep.receiveLoop()`. It returns the body to analyze and the package
// whose type info covers it, or ok=false when the target is dynamic (a
// function value) or has no source.
func (g *CallGraph) GoroutineEntry(pkg *Package, s *ast.GoStmt) (body *ast.BlockStmt, in *Package, ok bool) {
	if lit, isLit := ast.Unparen(s.Call.Fun).(*ast.FuncLit); isLit {
		return lit.Body, pkg, true
	}
	for _, fn := range g.Callees(pkg.Info, s.Call) {
		if src := g.SourceOf(fn); src != nil && src.Decl.Body != nil {
			return src.Decl.Body, src.Pkg, true
		}
	}
	return nil, nil, false
}
