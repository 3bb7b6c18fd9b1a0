package framework

import (
	"go/ast"
	"slices"
	"sort"
	"testing"
)

// TestCHAResolvesStepCoreImplementations is the call-graph acceptance test:
// the interface call n.core.InitiateBatch(...) in runtime.Node must resolve,
// class-hierarchy style, to the InitiateBatch method of every protocol core
// in the module — the five StepCore implementations — because that edge is
// what lets lockreach and goroleak see through the runtime's
// protocol-agnostic indirection.
func TestCHAResolvesStepCoreImplementations(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the runtime and every protocol package")
	}
	loader, err := NewLoader("")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load("./internal/runtime", "./internal/protocol/...")
	if err != nil {
		t.Fatal(err)
	}
	prog := NewProgram(pkgs)
	i := slices.IndexFunc(pkgs, func(p *Package) bool { return p.Path == "sendforget/internal/runtime" })
	if i < 0 {
		t.Fatal("runtime package not loaded")
	}
	rt := pkgs[i]

	var call *ast.CallExpr
	for _, f := range rt.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if call != nil {
				return false
			}
			c, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := c.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "InitiateBatch" {
				call = c
				return false
			}
			return true
		})
	}
	if call == nil {
		t.Fatal("no InitiateBatch call site found in internal/runtime")
	}

	callees := prog.CallGraph.Callees(rt.Info, call)
	gotPkgs := map[string]bool{}
	for _, fn := range callees {
		if fn.Name() != "InitiateBatch" {
			t.Errorf("resolved to non-InitiateBatch method %s", fn.FullName())
		}
		if fn.Pkg() != nil {
			gotPkgs[fn.Pkg().Path()] = true
		}
	}
	wantPkgs := []string{
		"sendforget/internal/protocol/flipper",
		"sendforget/internal/protocol/pushpull",
		"sendforget/internal/protocol/sendforget",
		"sendforget/internal/protocol/sfopt",
		"sendforget/internal/protocol/shuffle",
	}
	for _, p := range wantPkgs {
		if !gotPkgs[p] {
			got := make([]string, 0, len(gotPkgs))
			for k := range gotPkgs {
				got = append(got, k)
			}
			sort.Strings(got)
			t.Errorf("CHA missed implementation in %s; resolved packages: %v", p, got)
		}
	}

	// Every resolved method must have source available for interprocedural
	// analyses to descend into.
	for _, fn := range callees {
		if prog.CallGraph.SourceOf(fn) == nil {
			t.Errorf("no source for resolved callee %s", fn.FullName())
		}
	}
}
