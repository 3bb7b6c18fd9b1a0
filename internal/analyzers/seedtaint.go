package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"sendforget/internal/analyzers/framework"
)

// Seedtaint requires RNG seeds to be produced by rng.DeriveSeed, never by
// arithmetic on other seeds. Additive or multiplicative derivations
// (seed+id, seed+index+1, seed+id*7919...) produce colliding streams
// whenever two derivations land on the same value — the exact bug class
// fixed in PR 3, where the cluster's Seed+u+1 / Seed+u+7919 scheme made a
// rejoining node replay the initial stream of node u+7918, silently
// correlating "independent" experiment arms. DeriveSeed hashes every part
// through SplitMix64, so distinct part tuples give decorrelated streams.
//
// Reported, where the arithmetic is written:
//   - integer arithmetic with an operand that mentions a seed (a variable
//     or field named seed, Seed, or with a *Seed suffix),
//   - rng.New called on an arithmetic expression,
//   - a Seed struct field or seed-named variable set from an arithmetic
//     expression.
//
// Reported, where it arrives: a seed that was derived by arithmetic
// anywhere and reaches rng.New through assignments, struct fields and any
// chain of calls. The site rules are blind the moment the derivation hides
// behind a helper whose parameters are not seed-named —
//
//	func streamFor(base int64, u int64) int64 { return base + u + 1 }
//	...
//	r := rng.New(streamFor(cfg.Seed, id))
//
// — which is exactly how the PR 3 collision survived review: the additive
// scheme lived in a helper, syntactically far from the rng.New call it
// fed. The taint engine replays it end-to-end: the seed parameter is
// tainted at the call, the addition inside the helper promotes it to
// "arithmetically derived", the return carries the taint back, and the
// rng.New sink fires.
//
// Taint lattice: seedTaintIsSeed (an integer value named like a seed, or
// the result of rng.DeriveSeed) < seedTaintDerived (arithmetic applied to a
// seed). Only seedTaintDerived is reportable; plain seeds flowing into
// rng.New are the normal, correct pattern. rng.DeriveSeed sanitizes: its
// result is a clean seed no matter what its arguments were (arithmetic *in*
// those arguments is still a site finding).
//
// internal/rng is exempt and excluded from propagation — it is the
// sanctioned mixer, and its SplitMix64 and xoshiro internals are the
// arithmetic this analyzer exists to ban elsewhere.
//
// Violations found and fixed when the site rules landed: the per-point
// engine seeds in internal/experiments (ablations2, baselines, churnexp,
// fig6, randomwalk, sec65, sec7 — all p.Seed+int64(i) shapes) and the
// paired-substrate seed split in internal/equivalence (cfg.Seed+1).
var Seedtaint = &framework.Analyzer{
	Name: "seedtaint",
	Doc:  "RNG seeds come from rng.DeriveSeed: no arithmetic on a seed, and no arithmetic-derived seed reaching rng.New through any chain of calls or assignments",
	Run:  runSeedtaint,
}

const (
	seedTaintIsSeed  framework.Taint = 1
	seedTaintDerived framework.Taint = 2
)

const rngPkgPath = "sendforget/internal/rng"

// seedArithOps are the arithmetic operators that can alias streams.
var seedArithOps = map[token.Token]bool{
	token.ADD: true, token.SUB: true, token.MUL: true, token.QUO: true,
	token.REM: true, token.XOR: true, token.OR: true, token.AND: true,
	token.SHL: true, token.SHR: true, token.AND_NOT: true,
}

func runSeedtaint(pass *framework.Pass) error {
	if pass.Pkg.Path() == rngPkgPath {
		return nil
	}
	result := pass.Prog.Shared("seedtaint", func() any {
		return framework.SolveTaint(pass.Prog, framework.TaintSpec{
			Include: func(p *framework.Package) bool { return p.Path != rngPkgPath },
			Source:  seedTaintSource,
			Binary:  seedTaintBinary,
			Call:    seedTaintCall,
		})
	}).(*framework.TaintResult)

	info := pass.TypesInfo
	// One finding per position: a sink is visited before the arithmetic it
	// holds, so its more specific message wins.
	reported := map[token.Pos]bool{}
	report := func(pos token.Pos, format string, args ...any) {
		if !reported[pos] {
			reported[pos] = true
			pass.Reportf(pos, format+": use rng.DeriveSeed so streams cannot collide", args...)
		}
	}
	arith := func(e ast.Expr) bool {
		b, ok := e.(*ast.BinaryExpr)
		return ok && seedArithOps[b.Op]
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if !isRngFunc(info, n, "New") || len(n.Args) != 1 {
					break
				}
				if arg := n.Args[0]; arith(arg) {
					report(arg.Pos(), "rng.New seeded with an arithmetic expression")
				} else if result.Eval(info, arg) == seedTaintDerived {
					report(arg.Pos(), "arithmetic-derived seed reaches rng.New (through assignments/calls)")
				}
			case *ast.KeyValueExpr:
				if key := seedNameOf(n.Key); key != "" && arith(n.Value) {
					report(n.Value.Pos(), "field %s set from an arithmetic expression", key)
				}
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					if i < len(n.Rhs) && seedNameOf(lhs) != "" && arith(n.Rhs[i]) {
						report(n.Rhs[i].Pos(), "seed variable assigned from an arithmetic expression")
					}
				}
			case *ast.BinaryExpr:
				if seedArithOps[n.Op] && (mentionsSeed(info, n.X) || mentionsSeed(info, n.Y)) {
					report(n.Pos(), "seed derived by arithmetic (%s)", n.Op)
				}
			}
			return true
		})
	}
	return nil
}

// seedNameOf returns the name of a seed-named variable or field reference,
// or "" for any other expression. A seed is named "seed", "Seed", or with a
// camel-case *Seed/*seed suffix (nodeSeed, clusterSeed); plural "seeds"
// (bootstrap id lists) deliberately does not match.
func seedNameOf(e ast.Expr) string {
	var name string
	switch e := e.(type) {
	case *ast.Ident:
		name = e.Name
	case *ast.SelectorExpr:
		name = e.Sel.Name
	}
	if strings.HasSuffix(name, "Seed") || strings.HasSuffix(name, "seed") {
		return name
	}
	return ""
}

// mentionsSeed reports whether the expression contains a seed source.
func mentionsSeed(info *types.Info, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if sub, ok := n.(ast.Expr); ok && seedTaintSource(info, sub) != 0 {
			found = true
		}
		return !found
	})
	return found
}

// seedTaintSource marks integer-typed seed-named identifiers and selectors
// as seeds.
func seedTaintSource(info *types.Info, e ast.Expr) framework.Taint {
	if seedNameOf(e) == "" {
		return 0
	}
	if t := info.TypeOf(e); t != nil {
		if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsInteger != 0 {
			return seedTaintIsSeed
		}
	}
	return 0
}

// seedTaintBinary promotes any seed flowing through stream-aliasing
// arithmetic to "derived". Comparisons and logical operators do not
// produce seed values at all.
func seedTaintBinary(op token.Token, x, y framework.Taint) framework.Taint {
	if x == 0 && y == 0 {
		return 0
	}
	if seedArithOps[op] {
		return seedTaintDerived
	}
	// Every other binary operator (comparisons, &&, ||) yields a bool, not
	// a seed value.
	return 0
}

// seedTaintCall sanitizes rng.DeriveSeed — the sanctioned mixer returns a
// clean seed regardless of input taint.
func seedTaintCall(info *types.Info, call *ast.CallExpr, callees []*types.Func, arg func(int) framework.Taint) (framework.Taint, bool) {
	if isRngFunc(info, call, "DeriveSeed") {
		return seedTaintIsSeed, true
	}
	return 0, false
}

// isRngFunc reports whether the call targets sendforget/internal/rng.<name>.
func isRngFunc(info *types.Info, call *ast.CallExpr, name string) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	return ok && fn.Name() == name && fn.Pkg() != nil && fn.Pkg().Path() == rngPkgPath
}
