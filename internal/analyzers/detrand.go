package analyzers

import (
	"go/ast"
	"go/types"
	"strconv"

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
// Suite history: the suite's first full-repo run found no live violations —
// PR 1-3 had already scrubbed them by hand; this analyzer keeps it that way.
var Detrand = &framework.Analyzer{
	Name: "detrand",
	Doc:  "forbid ambient randomness (math/rand, crypto/rand) and wall-clock reads (time.Now) in deterministic packages",
	Run:  runDetrand,
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
