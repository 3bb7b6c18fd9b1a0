package analyzers

import (
	"fmt"
	"go/types"
	"sort"
	"strings"

	"sendforget/internal/analyzers/framework"
)

// Sharedguard proves race freedom of the concurrent substrates at the
// access-pair level. The framework's happens-before engine
// (framework.Concurrency) models goroutine contexts, channel token
// protocols, the sharded engine's dispatch barrier, and mutex locksets, and
// judges every pair of accesses to the same field or package variable.
// Sharedguard reports the pairs that survive every proof (framework.Racy):
// a write and another access that may run concurrently, neither on a fresh
// instance, with no common lock separating them.
//
// The paper's correctness results assume atomic per-round semantics;
// `go test -race` only certifies the single schedules it happens to run at
// n≤500. This analyzer is the static side of that bargain: it covers every
// schedule of every instance, at the cost of instance-insensitivity — which
// is exactly the right trade for the cluster/sharded engines, where one
// lock field guards one instance's state.
//
// Scope: objects declared in the concurrent substrate packages
// (internal/runtime, internal/mgmt, internal/driver, internal/transport).
// Fields under a //vet:confined contract are shardconfine's findings and
// are excluded here.
var Sharedguard = &framework.Analyzer{
	Name: "sharedguard",
	Doc:  "conflicting accesses to substrate state must be ordered, excluded, or confined",
	Run:  runSharedguard,
}

// sharedguardScope lists the packages whose declared state the analyzer
// guards. Fixture packages (no slash in the path) are always in scope.
var sharedguardScope = map[string]bool{
	"sendforget/internal/runtime":   true,
	"sendforget/internal/mgmt":      true,
	"sendforget/internal/driver":    true,
	"sendforget/internal/transport": true,
}

func sharedguardScoped(obj types.Object) bool {
	pkg := obj.Pkg()
	if pkg == nil {
		return false
	}
	return sharedguardScope[pkg.Path()] || fixturePackage(pkg.Path())
}

// sharedguardFinding is one unsynchronized conflicting pair, anchored at a
// write site.
type sharedguardFinding struct {
	at      *framework.ConcAccess // the write the diagnostic anchors to
	other   *framework.ConcAccess // the conflicting counterpart
	pkgPath string
}

func runSharedguard(pass *framework.Pass) error {
	findings := pass.Prog.Shared("sharedguard.findings", func() any {
		return collectSharedguard(pass.Prog)
	}).([]*sharedguardFinding)
	path := pass.Pkg.Path()
	for _, f := range findings {
		if f.pkgPath != path {
			continue
		}
		pass.Reportf(f.at.Pos, "%s", sharedguardMessage(f))
	}
	return nil
}

// collectSharedguard classifies every conflicting access pair program-wide
// and keeps the racy ones, one finding per write site (the earliest
// counterpart wins, so the diagnostic is deterministic).
func collectSharedguard(prog *framework.Program) []*sharedguardFinding {
	res := prog.Concurrency()
	byObj := make(map[types.Object][]*framework.ConcAccess)
	for _, a := range res.Accesses {
		if !sharedguardScoped(a.Obj) {
			continue
		}
		if res.Confined[a.Obj] != nil {
			continue // shardconfine owns the annotated fields
		}
		byObj[a.Obj] = append(byObj[a.Obj], a)
	}
	objs := make([]types.Object, 0, len(byObj))
	for obj := range byObj {
		objs = append(objs, obj)
	}
	sort.Slice(objs, func(i, j int) bool {
		pi, pj := byObj[objs[i]][0].Position, byObj[objs[j]][0].Position
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return pi.Column < pj.Column
	})
	var findings []*sharedguardFinding
	for _, obj := range objs {
		accs := byObj[obj]
		reported := make(map[*framework.ConcAccess]bool)
		// Accesses arrive in deterministic position order; scanning writes
		// in order and counterparts in order keeps findings stable.
		for _, w := range accs {
			if !w.Write || reported[w] {
				continue
			}
			for _, o := range accs {
				if o == w {
					continue
				}
				if !framework.Racy(w, o) {
					continue
				}
				findings = append(findings, &sharedguardFinding{
					at:      w,
					other:   o,
					pkgPath: w.Pkg.Path,
				})
				reported[w] = true
				// If the counterpart is a later write, one diagnostic for
				// the pair is enough.
				if o.Write {
					reported[o] = true
				}
				break
			}
		}
	}
	return findings
}

func sharedguardMessage(f *sharedguardFinding) string {
	kind := "read"
	if f.other.Write {
		kind = "write"
	}
	pos := f.other.Position
	site := fmt.Sprintf("%s:%d", shortFile(pos.Filename), pos.Line)
	return fmt.Sprintf(
		"unsynchronized write to %s in %s: conflicts with the %s in %s at %s — no common lock excludes the two and neither runs on a fresh instance",
		f.at.Obj.Name(), f.at.FnLabel, kind, f.other.FnLabel, site)
}

// shortFile trims the path to its last two segments, enough to identify the
// file without depending on the checkout location.
func shortFile(path string) string {
	parts := strings.Split(path, "/")
	if len(parts) <= 2 {
		return path
	}
	return strings.Join(parts[len(parts)-2:], "/")
}
