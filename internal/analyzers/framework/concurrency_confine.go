// Freshness classification for the happens-before engine: how one
// expression is judged fresh (an allocation this frame just made, or storage
// that never leaves a local's own bytes). concurrency_body.go consumes these
// while replaying function bodies.
package framework

import (
	"go/ast"
	"go/token"
	"go/types"
)

// rootIdentObj strips selectors, indexing, slicing, dereference, address-of
// and parens down to the base identifier's object.
func rootIdentObj(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return nil
			}
			e = x.X
		case *ast.Ident:
			return refObject(info, x)
		default:
			return nil
		}
	}
}

// privateRoot returns the local value variable that owns the storage a
// selector chain resolves into, when the chain never leaves the variable's
// own bytes and the variable's address never escapes. Writes into such
// storage are the function's own — value semantics mean every assignment
// copied — exactly like a fresh allocation.
func (s *concSolver) privateRoot(env *bodyEnv, e ast.Expr) *types.Var {
	v := valueChainRoot(env.pkg.Info, e)
	if v == nil || env.addr[v] {
		return nil
	}
	return v
}

// valueChainRoot resolves a chain that stays inside one local value: every
// step selects a field of a value or indexes a value array, and the root
// is a local or parameter of non-pointer type. The caller decides whether
// address-taking disqualifies the root: an access needs the storage fully
// private, while a method call only needs the receiver to point into the
// caller's own value at this site.
func valueChainRoot(info *types.Info, e ast.Expr) *types.Var {
	for {
		e = ast.Unparen(e)
		switch x := e.(type) {
		case *ast.SelectorExpr:
			tv, ok := info.Types[x.X]
			if !ok || isPointerType(tv.Type) {
				return nil
			}
			e = x.X
		case *ast.IndexExpr:
			tv, ok := info.Types[x.X]
			if !ok {
				return nil
			}
			if _, isArr := tv.Type.Underlying().(*types.Array); !isArr {
				return nil
			}
			e = x.X
		case *ast.Ident:
			v, _ := refObject(info, x).(*types.Var)
			if v == nil || v.IsField() ||
				v.Pkg() == nil || v.Parent() == v.Pkg().Scope() ||
				isPointerType(v.Type()) {
				return nil
			}
			return v
		default:
			return nil
		}
	}
}

func isPointerType(t types.Type) bool {
	_, ok := t.Underlying().(*types.Pointer)
	return ok
}

// freshExpr matches an allocation the enclosing function just made:
// &T{...}, new(T), make(...), or a composite literal value.
func freshExpr(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.UnaryExpr:
		if e.Op != token.AND {
			return false
		}
		_, isLit := ast.Unparen(e.X).(*ast.CompositeLit)
		return isLit
	case *ast.CompositeLit:
		return true
	case *ast.CallExpr:
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
			return id.Name == "new" || id.Name == "make"
		}
	}
	return false
}

// pointerFreeType reports whether values of t are self-contained: copying
// one shares no mutable storage with the original.
func pointerFreeType(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Kind() != types.UnsafePointer
	case *types.Array:
		return pointerFreeType(u.Elem())
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if !pointerFreeType(u.Field(i).Type()) {
				return false
			}
		}
		return true
	}
	return false
}
