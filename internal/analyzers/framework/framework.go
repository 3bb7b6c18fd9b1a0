// Package framework is a minimal, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis API shape: named Analyzers run over
// type-checked packages and report position-tagged diagnostics.
//
// The repository vendors no third-party modules, so the x/tools analysis
// driver is not available; this package provides the slice of it that
// cmd/sfvet and the internal/analyzers suite need:
//
//   - Analyzer / Pass / Diagnostic types mirroring go/analysis,
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
	"go/ast"
	"go/token"
	"go/types"
	"runtime"
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
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass) error
}

// Pass carries one analyzer's view of one type-checked package. Prog gives
// interprocedural analyzers the whole loaded program: every source package,
// the shared call graph, and a memo for program-wide computations.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Prog      *Program

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

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
// the CHA call graph spanning them, and a memo that lets analyzers share
// program-wide computations (taint fixpoints, blocking summaries) across
// per-package passes — including parallel ones.
type Program struct {
	Packages  []*Package
	CallGraph *CallGraph

	byPath map[string]*Package

	mu     sync.Mutex
	shared map[string]*sharedEntry
}

// sharedEntry is one memoized program-wide computation. Each key builds
// under its own once, so one Shared build may depend on another
// (sharedguard's findings consume the happens-before model); only
// self-recursion on a single key deadlocks.
type sharedEntry struct {
	once sync.Once
	v    any
}

// NewProgram builds the program view — including the call graph — over the
// given source packages.
func NewProgram(pkgs []*Package) *Program {
	prog := &Program{
		Packages:  pkgs,
		CallGraph: buildCallGraph(pkgs, "sendforget/"),
		byPath:    make(map[string]*Package, len(pkgs)),
		shared:    make(map[string]*sharedEntry),
	}
	for _, pkg := range pkgs {
		prog.byPath[pkg.Path] = pkg
	}
	return prog
}

// Package returns the source package with the given path, or nil when it
// was not loaded from source.
func (prog *Program) Package(path string) *Package { return prog.byPath[path] }

// Shared memoizes a program-wide computation under key: the first caller
// builds it, everyone else gets the same value. Each key builds under its
// own sync.Once, so a value is computed exactly once even when packages are
// analyzed in parallel, and one build may call Shared for a different key;
// the built value must be treated as read-only.
func (prog *Program) Shared(key string, build func() any) any {
	prog.mu.Lock()
	e, ok := prog.shared[key]
	if !ok {
		e = &sharedEntry{}
		prog.shared[key] = e
	}
	prog.mu.Unlock()
	e.once.Do(func() { e.v = build() })
	return e.v
}

// Analyze applies every analyzer to one of the program's packages, filters
// the findings through the package's //lint:allow directives, and returns
// them in file/line order. Analyzer runtime errors (not diagnostics) are
// returned as err.
func (prog *Program) Analyze(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			Prog:      prog,
			diags:     &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", pkg.Path, a.Name, err)
		}
	}
	diags = suppressAllowed(pkg, diags)
	sortDiagnostics(diags)
	return diags, nil
}

// AnalyzeAll runs the suite over every package of the program on up to
// GOMAXPROCS goroutines and returns the findings in deterministic (package,
// file, line) order regardless of the worker count. The heavy shared
// structures — export data, the call graph, Shared memos — are built once
// and read by all workers.
func (prog *Program) AnalyzeAll(analyzers []*Analyzer) ([]Diagnostic, error) {
	workers := min(runtime.GOMAXPROCS(0), len(prog.Packages))
	perPkg := make([][]Diagnostic, len(prog.Packages))
	errs := make([]error, len(prog.Packages))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				perPkg[i], errs[i] = prog.Analyze(prog.Packages[i], analyzers)
			}
		}()
	}
	for i := range prog.Packages {
		next <- i
	}
	close(next)
	wg.Wait()
	var diags []Diagnostic
	for i, err := range errs {
		if err != nil {
			return nil, err
		}
		diags = append(diags, perPkg[i]...)
	}
	sortDiagnostics(diags)
	return diags, nil
}

// RunAnalyzers analyzes a single package as its own one-package program —
// the fixture runner's entry point. Interprocedural analyzers see only the
// package itself, which is exactly the fixture contract.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	return NewProgram([]*Package{pkg}).Analyze(pkg, analyzers)
}

func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
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
}
