package framework

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// namedStruct builds a named struct type from (fieldName, fieldType) pairs,
// mirroring how the engine sees real declarations without loading source.
func namedStruct(name string, fields ...any) *types.Named {
	var vars []*types.Var
	for i := 0; i+1 < len(fields); i += 2 {
		vars = append(vars, types.NewField(token.NoPos, nil, fields[i].(string), fields[i+1].(types.Type), false))
	}
	st := types.NewStruct(vars, nil)
	tn := types.NewTypeName(token.NoPos, nil, name, nil)
	return types.NewNamed(tn, st, nil)
}

// TestLocksExclude pins the mode semantics: exclusion needs a common key
// with at least one exclusive hold. Read-vs-read and barrier-vs-barrier
// never exclude — two phase workers inherit the same barrier token and
// still run concurrently.
func TestLocksExclude(t *testing.T) {
	mu := types.NewVar(token.NoPos, nil, "mu", types.Typ[types.Int])
	gate := types.NewVar(token.NoPos, nil, "gate", types.Typ[types.Int])

	cases := []struct {
		name    string
		a, b    Lockset
		exclude bool
	}{
		{"no common key", Lockset{mu: ModeExcl}, Lockset{gate: ModeExcl}, false},
		{"both exclusive", Lockset{mu: ModeExcl}, Lockset{mu: ModeExcl}, true},
		{"excl vs read", Lockset{mu: ModeExcl}, Lockset{mu: ModeRead}, true},
		{"read vs read", Lockset{mu: ModeRead}, Lockset{mu: ModeRead}, false},
		{"barrier vs barrier", Lockset{gate: ModeBarrier}, Lockset{gate: ModeBarrier}, false},
		{"token holder vs barrier worker", Lockset{gate: ModeExcl}, Lockset{gate: ModeBarrier}, true},
	}
	for _, c := range cases {
		if got := locksExclude(c.a, c.b); got != c.exclude {
			t.Errorf("%s: locksExclude = %v, want %v", c.name, got, c.exclude)
		}
	}
}

// TestPointerFreeType: a value of self-contained type shares no storage
// with its copies; anything that can alias mutable storage does.
func TestPointerFreeType(t *testing.T) {
	intT := types.Typ[types.Int]
	cases := []struct {
		name string
		t    types.Type
		free bool
	}{
		{"int", intT, true},
		{"string", types.Typ[types.String], true}, // immutable backing store
		{"array of int", types.NewArray(intT, 4), true},
		{"struct of ints", namedStruct("pair", "a", intT, "b", intT), true},
		{"unsafe pointer", types.Typ[types.UnsafePointer], false},
		{"slice", types.NewSlice(intT), false},
		{"pointer", types.NewPointer(intT), false},
		{"struct with slice", namedStruct("buf", "xs", types.NewSlice(intT)), false},
	}
	for _, c := range cases {
		if got := pointerFreeType(c.t); got != c.free {
			t.Errorf("%s: pointerFreeType(%v) = %v, want %v", c.name, c.t, got, c.free)
		}
	}
}

// TestFreshExpr drives the freshness matcher over parsed expression forms:
// only allocations the enclosing frame just made count.
func TestFreshExpr(t *testing.T) {
	cases := []struct {
		src   string
		fresh bool
	}{
		{"&T{}", true},
		{"T{a: 1}", true},
		{"new(T)", true},
		{"make([]int, 8)", true},
		{"(&T{})", true},
		{"x", false},
		{"f()", false},
		{"&x", false}, // address of existing storage, not an allocation
		{"x.f", false},
	}
	for _, c := range cases {
		e, err := parser.ParseExpr(c.src)
		if err != nil {
			t.Fatalf("ParseExpr(%q): %v", c.src, err)
		}
		if got := freshExpr(e); got != c.fresh {
			t.Errorf("freshExpr(%q) = %v, want %v", c.src, got, c.fresh)
		}
	}
}

// TestRootIdentObj walks chains down to their base identifier with real
// type information, the same resolution record() uses to find an access's
// root variable.
func TestRootIdentObj(t *testing.T) {
	const src = `package p
type T struct{ f [4]int }
var g T
func use(p *T) int { return p.f[g.f[0]] }
`
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Uses:  make(map[*ast.Ident]types.Object),
		Defs:  make(map[*ast.Ident]types.Object),
		Types: make(map[ast.Expr]types.TypeAndValue),
	}
	conf := types.Config{}
	if _, err := conf.Check("p", fset, []*ast.File{file}, info); err != nil {
		t.Fatal(err)
	}
	var ret ast.Expr
	ast.Inspect(file, func(n ast.Node) bool {
		if r, ok := n.(*ast.ReturnStmt); ok {
			ret = r.Results[0]
		}
		return true
	})
	obj := rootIdentObj(info, ret)
	if obj == nil || obj.Name() != "p" {
		t.Fatalf("rootIdentObj(p.f[g.f[0]]) = %v, want the parameter p", obj)
	}
}
