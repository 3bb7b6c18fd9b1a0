package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"

	"sendforget/internal/analyzers/framework"
)

// Detrand forbids ambient randomness and wall-clock reads in deterministic
// packages: importing math/rand, math/rand/v2, or crypto/rand, and calling
// time.Now, time.Since, or time.Until. Every random draw in simulation and
// analysis code must flow through internal/rng (seeded xoshiro256**), and
// simulated time must be logical (rounds, steps, ticks) — otherwise
// experiment results stop being bit-reproducible across runs, hosts, and
// -parallel worker counts, and the model<->simulation cross-validation the
// paper's argument rests on loses its footing.
//
// time.Duration arithmetic and timers (time.NewTicker in the concurrent
// runtime) remain legal: the runtime's job is wall-clock pacing, and pacing
// does not feed protocol decisions. Reading the clock does.
//
// The one sanctioned escape is internal/rng itself, which may wrap an
// entropy source behind a `//lint:allow detrand` directive (rng.AutoSeed
// uses crypto/rand this way) so that even nondeterministic seeding for
// production nodes enters through the audited package. Calling AutoSeed is
// itself a detrand finding: each call site injects entropy and must carry
// its own `//lint:allow detrand` explaining why the run need not replay.
//
// Scope: all of internal/... and — since the suite went interprocedural —
// the command mains under cmd/..., whose experiment runs must replay from a
// -seed flag alone. Wall-clock progress timing written to stderr is legal
// there but must be visibly allowed.
//
// Seeds: a stream is seeded from an rng.Seed, so an int64 (the old
// cluster's Seed+u+1, written in a helper far from the rng.New it fed) does
// not compile where a stream is seeded. What the type system cannot forbid is
// making a Seed by hand, so in every package but internal/rng detrand also
// reports
//   - arithmetic with an rng.Seed operand: two such derivations collide
//     whenever they sum to the same value, where rng.DeriveSeed hashes,
//   - a conversion of arithmetic to rng.Seed, anywhere: the experiment
//     runners' per-point seeds were p.Seed+int64(i) before DeriveSeed, and
//   - any other conversion to rng.Seed, outside the packages that own a
//     run's root seed (the commands and the experiment runners) and apart
//     from the engines' one conversion of a runtime.Config's Seed.
//
// Suite history: the suite's first full-repo run found no live violations —
// PR 1-3 had already scrubbed them by hand; this analyzer keeps it that way.
var Detrand = &framework.Analyzer{
	Name: "detrand",
	Doc:  "forbid ambient randomness (math/rand, crypto/rand) and wall-clock reads (time.Now) in deterministic packages, and arithmetic on or unsanctioned conversion to rng.Seed anywhere",
	Run:  runDetrand,
}

const rngPkgPath = "sendforget/internal/rng"

// seedArithOps are the arithmetic operators that can alias streams.
var seedArithOps = map[token.Token]bool{
	token.ADD: true, token.SUB: true, token.MUL: true, token.QUO: true,
	token.REM: true, token.XOR: true, token.OR: true, token.AND: true,
	token.SHL: true, token.SHR: true, token.AND_NOT: true,
}

// detrandForbiddenImports maps forbidden import paths to the reason shown in
// the diagnostic.
var detrandForbiddenImports = map[string]string{
	"math/rand":    "unseeded ambient randomness",
	"math/rand/v2": "unseeded ambient randomness",
	"crypto/rand":  "nondeterministic entropy",
}

// detrandForbiddenTimeFuncs are the wall-clock reads in package time.
var detrandForbiddenTimeFuncs = map[string]bool{
	"Now":   true,
	"Since": true,
	"Until": true,
}

func runDetrand(prog *framework.Program, report framework.Report) {
	for _, pkg := range prog.Packages {
		if pkg.Path != rngPkgPath {
			seedSites(pkg, report)
		}
		if !deterministicPackage(pkg.Path) {
			continue
		}
		for _, f := range pkg.Files {
			for _, spec := range f.Imports {
				path, err := strconv.Unquote(spec.Path.Value)
				if err != nil {
					continue
				}
				if reason, bad := detrandForbiddenImports[path]; bad {
					report(spec.Pos(),
						"import of %s (%s) in deterministic package %s: all randomness must flow through internal/rng",
						path, reason, pkg.Path)
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
				if !ok || fn.Pkg() == nil {
					return true
				}
				if fn.Pkg().Path() == "time" && detrandForbiddenTimeFuncs[fn.Name()] {
					report(call.Pos(),
						"call to time.%s in deterministic package %s: simulated time must be logical (rounds/steps), not wall clock",
						fn.Name(), pkg.Path)
				}
				if fn.Name() == "AutoSeed" && fn.Pkg().Path() == rngPkgPath {
					report(call.Pos(),
						"call to rng.AutoSeed injects nondeterministic entropy into package %s: use an explicit seed, or allow this site with a reason",
						pkg.Path)
				}
				return true
			})
		}
	}
}

// seedSites reports arithmetic on an rng.Seed and the conversions to one
// that the package may not make.
func seedSites(pkg *framework.Package, report framework.Report) {
	info := pkg.Info
	isSeed := func(e ast.Expr) bool { return isRngSeed(info.TypeOf(e)) }
	arith := func(pos token.Pos, op token.Token) {
		report(pos, "arithmetic on an rng.Seed (%s): use rng.DeriveSeed so streams cannot collide", op)
	}
	root := seedRootPackage(pkg.Path)
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if seedArithOps[n.Op] && (isSeed(n.X) || isSeed(n.Y)) {
					arith(n.OpPos, n.Op)
				}
			case *ast.AssignStmt:
				if n.Tok != token.ASSIGN && n.Tok != token.DEFINE && isSeed(n.Lhs[0]) {
					arith(n.TokPos, n.Tok)
				}
			case *ast.IncDecStmt:
				if isSeed(n.X) {
					arith(n.TokPos, n.Tok)
				}
			case *ast.CallExpr:
				if tv := info.Types[n.Fun]; !tv.IsType() || !isRngSeed(tv.Type) {
					break
				}
				if b, ok := ast.Unparen(n.Args[0]).(*ast.BinaryExpr); ok && seedArithOps[b.Op] {
					report(n.Pos(), "conversion of arithmetic (%s) to rng.Seed: use rng.DeriveSeed so streams cannot collide", b.Op)
				} else if !root && !configSeed(info, n.Args[0]) {
					report(n.Pos(), "conversion to rng.Seed in package %s: take an rng.Seed, or make one with rng.DeriveSeed", pkg.Path)
				}
			}
			return true
		})
	}
}

// seedRootPackage reports whether the package owns a run's root seed (a
// flag, an experiment's parameter) and so may convert it to an rng.Seed.
func seedRootPackage(path string) bool {
	return strings.HasPrefix(path, "sendforget/cmd/") || path == "sendforget/internal/experiments"
}

// isRngSeed reports whether t is rng.Seed.
func isRngSeed(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Seed" && named.Obj().Pkg().Path() == rngPkgPath
}

// configSeed reports whether e reads the Seed field of a runtime.Config, the
// root every engine seeds its own stream from.
func configSeed(info *types.Info, e ast.Expr) bool {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Seed" || info.Selections[sel] == nil {
		return false
	}
	named, ok := info.Selections[sel].Recv().(*types.Named)
	return ok && named.Obj().Name() == "Config" && named.Obj().Pkg().Path() == "sendforget/internal/runtime"
}
