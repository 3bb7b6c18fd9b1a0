// Package framework runs named Analyzers over a whole type-checked program
// and collects position-tagged diagnostics, without golang.org/x/tools.
//
// The repository vendors no third-party modules, so the x/tools analysis
// driver is not available; this package provides what cmd/sfvet and the
// internal/analyzers suite need:
//
//   - Analyzer, Program and Diagnostic: each analyzer runs once over the
//     whole loaded program (Program.Run) and reports positions,
//   - a Loader that type-checks packages through `go list -export`
//     export data (see driver.go), and
//   - an analysistest-style fixture runner keyed on `// want "regexp"`
//     comments (see atest.go).
//
// On top sit the engines the interprocedural analyzers compose: a CFG
// builder with a forward dataflow solver (cfg.go), a CHA call graph
// (callgraph.go), an object-based taint fixpoint (taint.go), the held-lock
// dataflow (lockflow.go), an allocation-site classifier (alloc.go), and the
// happens-before engine (concurrency*.go). A rule in those
// engines whose only effect is to silence a finding stays only while some
// line of the repository is reported without it; DESIGN.md "Enforced
// invariants" lists each with its witness.
//
// Suppression: a source line carrying (or directly following) a comment of
// the form
//
//	//lint:allow <analyzer>[,<analyzer>...] [reason]
//
// is exempt from diagnostics of the named analyzers. The directive is
// deliberately loud — it marks a reviewed exception to a repo invariant and
// should carry a reason.
package framework

import (
	"fmt"
	"go/token"
	"runtime"
	"slices"
	"sort"
	"sync"
)

// Analyzer is one named static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and //lint:allow
	// directives. It must be a single lowercase word.
	Name string
	// Doc states the invariant the analyzer enforces and why.
	Doc string
	// Run inspects the whole program and reports each finding. Other
	// analyzers may run alongside it, so it treats the program as
	// read-only.
	Run func(prog *Program, report Report)
}

// Report records one finding of the running analyzer at pos.
type Report func(pos token.Pos, format string, args ...any)

// Diagnostic is one finding, already resolved to a file position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Program is a whole loaded program: the source packages under analysis,
// the CHA call graph spanning them, and their //lint:allow directives.
type Program struct {
	Packages  []*Package
	CallGraph *CallGraph

	fset   *token.FileSet // every package's: one Loader loads them all
	allows *allowSet
}

// NewProgram builds the program view — the call graph and the allow set —
// over the given source packages.
func NewProgram(pkgs []*Package) *Program {
	prog := &Program{
		Packages:  pkgs,
		CallGraph: buildCallGraph(pkgs, "sendforget/"),
		allows:    newAllowSet(pkgs),
	}
	if len(pkgs) > 0 {
		prog.fset = pkgs[0].Fset
	}
	return prog
}

// Run applies each analyzer once to the whole program, one analyzer per
// worker on up to GOMAXPROCS goroutines, drops each finding a //lint:allow
// directive covers as it is reported, and returns the rest in (file, line,
// column, analyzer) order regardless of the worker count.
func (prog *Program) Run(analyzers []*Analyzer) []Diagnostic {
	found := make([][]Diagnostic, len(analyzers))
	next := make(chan int)
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(analyzers)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				a := analyzers[i]
				a.Run(prog, func(pos token.Pos, format string, args ...any) {
					p := prog.fset.Position(pos)
					if !prog.allows.use(p.Filename, p.Line, a.Name) {
						found[i] = append(found[i], Diagnostic{a.Name, p, fmt.Sprintf(format, args...)})
					}
				})
			}
		}()
	}
	for i := range analyzers {
		next <- i
	}
	close(next)
	wg.Wait()
	diags := slices.Concat(found...)
	sort.SliceStable(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}
