package analyzers

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"sendforget/internal/analyzers/framework"
)

func TestHotallocFixture(t *testing.T) {
	framework.RunFixture(t, fixture("hotalloc"), Hotalloc)
}

func TestAtomicmixFixture(t *testing.T) {
	framework.RunFixture(t, fixture("atomicmix"), Atomicmix)
}

func TestHotplantFixture(t *testing.T) {
	framework.RunFixture(t, fixture("hotplant"), Hotalloc)
}

// TestFixtureParity is the meta-test behind the fixture audit: every
// registered analyzer must keep a testdata/src/<name> fixture package
// holding at least one positive expectation (a `// want` comment, proving
// the analyzer fires) and at least one `//lint:allow <name>` directive
// (proving its suppression path is exercised), so adding an analyzer
// without two-sided fixture coverage fails here rather than shipping
// untested.
func TestFixtureParity(t *testing.T) {
	wantRE := regexp.MustCompile(`//\s*want\s+`)
	for _, a := range All() {
		entries, err := os.ReadDir(fixture(a.Name))
		if err != nil {
			t.Errorf("analyzer %s has no fixture directory: %v", a.Name, err)
			continue
		}
		allowMark := "//lint:allow " + a.Name
		goFiles, wants, allows := 0, 0, 0
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
				continue
			}
			goFiles++
			src, err := os.ReadFile(filepath.Join(fixture(a.Name), e.Name()))
			if err != nil {
				t.Errorf("analyzer %s fixture %s unreadable: %v", a.Name, e.Name(), err)
				continue
			}
			for _, line := range strings.Split(string(src), "\n") {
				if wantRE.MatchString(line) {
					wants++
				}
				if strings.Contains(line, allowMark) {
					allows++
				}
			}
		}
		if goFiles == 0 {
			t.Errorf("analyzer %s fixture directory holds no Go files", a.Name)
			continue
		}
		if wants == 0 {
			t.Errorf("analyzer %s fixture has no `// want` expectation: nothing proves the analyzer fires", a.Name)
		}
		if allows == 0 {
			t.Errorf("analyzer %s fixture has no //lint:allow %s case: the suppression path is untested", a.Name, a.Name)
		}
	}
}

// The mirror of testdata/src/hotplant, compiled for real so the dynamic
// side of the comparison actually runs: a reduced sharded tick path whose
// rejoin branch — where the allocation is planted — executes only on an
// incarnation change.
type plantNode struct {
	view        [8]int32
	occ         int
	incarnation int32
}

type plantCluster struct {
	nodes []plantNode
	seen  []int32
	inbox []int32
}

func (c *plantCluster) tickRound() {
	c.initiate()
	c.deliver()
}

func (c *plantCluster) initiate() {
	for u := range c.nodes {
		nd := &c.nodes[u]
		if nd.incarnation != c.seen[u] {
			c.rejoin(u)
		}
		if nd.occ >= 2 {
			i, j := nd.occ-1, nd.occ-2
			c.inbox = append(c.inbox, nd.view[i], nd.view[j])
			nd.view[i], nd.view[j] = 0, 0
			nd.occ -= 2
		}
	}
}

func (c *plantCluster) rejoin(u int) {
	nd := &c.nodes[u]
	seeds := make([]int32, len(c.nodes)) // the planted allocation
	for i := range seeds {
		seeds[i] = int32(i)
	}
	for i := 0; i < len(nd.view) && i < len(seeds); i++ {
		nd.view[i] = seeds[i]
	}
	nd.occ = len(nd.view)
	c.seen[u] = nd.incarnation
}

func (c *plantCluster) deliver() {
	for _, id := range c.inbox {
		nd := &c.nodes[int(id)%len(c.nodes)]
		if nd.occ < len(nd.view) {
			nd.view[nd.occ] = id
			nd.occ++
		}
	}
	c.inbox = c.inbox[:0]
}

// TestHotallocCatchesWhatDynamicCountingMisses is the regression test the
// hotalloc analyzer exists for: the planted allocation sits on the rejoin branch, a
// TestShardedZeroAllocTick-style AllocsPerRun count over a stable 500-node
// cluster measures zero allocations — the branch never runs — while the
// static analyzer reports the site with its full call chain.
func TestHotallocCatchesWhatDynamicCountingMisses(t *testing.T) {
	const n = 500
	c := &plantCluster{
		nodes: make([]plantNode, n),
		seen:  make([]int32, n),
	}
	for u := range c.nodes {
		nd := &c.nodes[u]
		for i := range nd.view {
			nd.view[i] = int32((u + i + 1) % n)
		}
		nd.occ = len(nd.view)
	}

	// Dynamic side: the steady-state tick is allocation-free at n=500, so an
	// alloc counter certifies the path "zero-alloc" with the bug in place.
	allocs := testing.AllocsPerRun(10, c.tickRound)
	if allocs != 0 {
		t.Fatalf("dynamic count sees %v allocs/run; the planted branch was supposed to stay cold", allocs)
	}

	// Static side: hotalloc reports the planted make regardless of which
	// branches any particular run takes.
	diags, err := framework.FixtureDiagnostics(fixture("hotplant"), Hotalloc)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Fatalf("want exactly the planted allocation, got %d diagnostics: %v", len(diags), diags)
	}
	d := diags[0]
	if d.Analyzer != "hotalloc" {
		t.Errorf("diagnostic from %q, want hotalloc", d.Analyzer)
	}
	for _, part := range []string{"tickRound -> initiate -> rejoin", "make with non-constant size"} {
		if !strings.Contains(d.Message, part) {
			t.Errorf("diagnostic %q missing %q", d.Message, part)
		}
	}
}

// TestUnusedAllows pins the stale-directive check at the framework level:
// after a full run over the fixture, the directive that suppressed a live
// detrand diagnostic is used, and the stale one is reported with its file,
// line, and reason.
func TestUnusedAllows(t *testing.T) {
	loader, err := framework.NewLoader("")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(fixture("unusedallow"))
	if err != nil {
		t.Fatal(err)
	}
	prog := framework.NewProgram([]*framework.Package{pkg})
	for _, d := range prog.Run(All()) {
		t.Errorf("fixture should analyze clean (the live finding is suppressed): %s", d)
	}
	unused := prog.UnusedAllows()
	if len(unused) != 1 {
		t.Fatalf("want exactly the stale directive, got %d: %v", len(unused), unused)
	}
	u := unused[0]
	if u.Analyzer != "detrand" {
		t.Errorf("stale directive analyzer = %q, want detrand", u.Analyzer)
	}
	if !strings.Contains(u.Reason, "stale") {
		t.Errorf("stale directive reason %q not preserved", u.Reason)
	}
	if u.Used {
		t.Error("reported directive is marked used")
	}
}
