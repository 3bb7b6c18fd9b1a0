package sendforget_test

import (
	"os/exec"
	"path/filepath"
	goruntime "runtime"
	"strings"
	"testing"
)

// hotInlines lists, by package directory and by the name the compiler's
// inlining report gives, the functions of the sharded tick's per-node and
// per-message path that were made to fit the compiler's inlining budget
// (80): a node's initiate is one StepCore.InitiateBatch call and a
// delivered message one RouteBy and one StepCore.ReceiveBatch call only
// while each of these inlines. Several sit a few units under the budget
// (DESIGN.md, "One dynamic call per step", has the costs), so an edit that
// looks harmless can push one over and give the gain back without failing
// any other test. The costs are the ones go.mod's toolchain line prices.
var hotInlines = []struct{ dir, fn string }{
	{"internal/rng", "(*RNG).Uint64"},
	{"internal/rng", "(*RNG).Bernoulli"},
	{"internal/driver", "(*Router).admit"},
	{"internal/view", "(*View).FillEmptyPair"},
}

// TestHotPathInlines builds the hot path's packages with the compiler's
// inlining report on and fails for every listed function that it does not
// report inlinable, quoting the compiler's reason (its cost, when over
// budget).
func TestHotPathInlines(t *testing.T) {
	dirs := map[string]bool{}
	var pkgs []string
	for _, h := range hotInlines {
		if !dirs[h.dir] {
			dirs[h.dir] = true
			pkgs = append(pkgs, "./"+h.dir)
		}
	}
	gobin := filepath.Join(goruntime.GOROOT(), "bin", "go")
	out, err := exec.Command(gobin, append([]string{"build", "-gcflags=-m=2"}, pkgs...)...).CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m=2: %v\n%s", err, out)
	}
	lines := strings.Split(string(out), "\n")
	for _, h := range hotInlines {
		var verdict string
		for _, l := range lines {
			if file, _, ok := strings.Cut(l, ":"); !ok || filepath.Dir(file) != h.dir {
				continue
			}
			if strings.Contains(l, ": can inline "+h.fn+" ") {
				verdict = "ok"
				break
			}
			if strings.Contains(l, ": cannot inline "+h.fn+": ") {
				verdict = l
			}
		}
		switch verdict {
		case "ok":
		case "":
			t.Errorf("%s: %s is not in %s's inlining report", h.dir, h.fn, goruntime.Version())
		default:
			t.Errorf("%s: %s no longer inlines under %s: %s", h.dir, h.fn, goruntime.Version(), verdict)
		}
	}
}
