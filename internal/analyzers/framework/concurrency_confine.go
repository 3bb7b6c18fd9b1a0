// Freshness classification for the happens-before engine: how one
// expression is judged fresh (an allocation this frame just made).
// concurrency_body.go consumes these while replaying function bodies.
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
