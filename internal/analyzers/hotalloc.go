package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"sendforget/internal/analyzers/framework"
)

// Hotalloc statically proves the declared hot paths allocation-free: no
// allocation site may be reachable from a function carrying a //vet:hotpath
// directive, through any chain of static or CHA-resolved calls.
//
// The sharded engine's zero-alloc tick guarantee (PR 6) is what makes the
// million-node target affordable, but until now it was enforced only
// dynamically: TestShardedZeroAllocTick and the allocs_per_op bench gate
// count allocations on whichever branches a particular n and seed happen to
// execute. An allocation hidden in a churn/rejoin or reply-outbox branch
// ships silently until a workload hits it at scale. Hotalloc replaces the
// sampled count with whole-path proof: every make/new, growing append,
// interface boxing, closure capture, string concat/conversion, map insert,
// variadic materialization, go statement, and call into an allocating
// stdlib package (fmt, sort, strconv, ...) reachable from a hot root is a
// finding, reported with the full call chain from root to site.
//
// The classifier (Program.AllocSites) keeps the sanctioned idioms out of the
// findings: the pooled view-slab and Outbox appends (`o.IDs = append(o.IDs,
// ...)` reuses caller-owned capacity) and value-struct message passing
// (FlatMsg is copied, never boxed) are allocation-free and stay silent. It
// attempts no escape proof, so a make, new, &T{...} or []T{...} is a finding
// wherever it stands on a hot chain.
//
// Suppression composes in two ways: a `//lint:allow hotalloc` on the
// allocation site silences that site (every root still reaching it), and
// one on a *call* prunes the entire subtree behind the call — the edge cut
// for a reviewed, documented cold branch hanging off a hot chain.
//
// Known blind spots, by construction of the call graph: calls through
// function values resolve to no callees and are not followed, and calls
// into non-allocating stdlib packages are trusted allocation-free.
var Hotalloc = &framework.Analyzer{
	Name: "hotalloc",
	Doc:  "no allocation site reachable from a //vet:hotpath root (zero-alloc tick path, step cores, fused view ops, FlatMsg codec, router)",
	Run:  runHotalloc,
}

// hotFinding is one allocation site reachable from a hot root, resolved to
// the package that must report (and may suppress) it.
type hotFinding struct {
	pkgPath string
	pos     token.Pos
	chain   string
	what    string
}

func runHotalloc(pass *framework.Pass) error {
	findings := pass.Prog.Shared("hotalloc.findings", func() any {
		return collectHotFindings(pass.Prog)
	}).([]hotFinding)
	for _, f := range findings {
		if f.pkgPath == pass.Pkg.Path() {
			pass.Reportf(f.pos, "allocation on hot path (%s): %s", f.chain, f.what)
		}
	}
	return nil
}

// collectHotFindings walks the call graph breadth-first from every
// //vet:hotpath root, classifying allocation sites in each reached function.
// BFS order makes the recorded chain the shortest root-to-function path, and
// the deterministic package/declaration/callee ordering makes the output
// stable across runs and worker counts.
func collectHotFindings(prog *framework.Program) []hotFinding {
	graph := prog.CallGraph

	type workItem struct {
		fn    *types.Func
		chain []string
	}
	var queue []workItem
	visited := make(map[*types.Func]bool)
	for _, pkg := range prog.Packages {
		for _, decl := range framework.HotpathDecls(pkg) {
			fn := framework.FuncOf(pkg, decl)
			if fn == nil || visited[fn] {
				continue
			}
			visited[fn] = true
			queue = append(queue, workItem{fn, []string{decl.Name.Name}})
		}
	}

	var findings []hotFinding
	for len(queue) > 0 {
		item := queue[0]
		queue = queue[1:]
		src := graph.SourceOf(item.fn)
		if src == nil || src.Decl.Body == nil {
			continue
		}
		chain := strings.Join(item.chain, " -> ")
		for _, site := range prog.AllocSites(src.Pkg, src.Decl) {
			findings = append(findings, hotFinding{
				pkgPath: src.Pkg.Path,
				pos:     site.Pos,
				chain:   chain,
				what:    site.What,
			})
		}
		walkExecuted(src.Decl.Body, func(n ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return
			}
			// An allow directive on the call line cuts this edge: everything
			// behind the call is a reviewed, documented exception.
			if src.Pkg.AllowedAt(call.Pos(), "hotalloc") {
				return
			}
			for _, callee := range graph.Callees(src.Pkg.Info, call) {
				if visited[callee] || graph.SourceOf(callee) == nil {
					continue
				}
				visited[callee] = true
				next := make([]string, len(item.chain), len(item.chain)+1)
				copy(next, item.chain)
				queue = append(queue, workItem{callee, append(next, callee.Name())})
			}
		})
	}
	return findings
}
