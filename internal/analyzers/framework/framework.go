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
// (callgraph.go), the held-lock dataflow (lockflow.go), an allocation-site classifier (alloc.go), and the
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
	"cmp"
	"fmt"
	"go/token"
	"slices"
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

// Run applies each analyzer once to the whole program, in order, drops each
// finding a //lint:allow directive covers as it is reported, and returns the
// rest in (file, line, column, analyzer) order.
func (prog *Program) Run(analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		a.Run(prog, func(pos token.Pos, format string, args ...any) {
			p := prog.fset.Position(pos)
			if !prog.allows.use(p.Filename, p.Line, a.Name) {
				diags = append(diags, Diagnostic{a.Name, p, fmt.Sprintf(format, args...)})
			}
		})
	}
	slices.SortStableFunc(diags, func(a, b Diagnostic) int {
		return cmp.Or(cmp.Compare(a.Pos.Filename, b.Pos.Filename), cmp.Compare(a.Pos.Line, b.Pos.Line),
			cmp.Compare(a.Pos.Column, b.Pos.Column), cmp.Compare(a.Analyzer, b.Analyzer))
	})
	return diags
}
