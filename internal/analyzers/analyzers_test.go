package analyzers

import (
	"path/filepath"
	"strings"
	"testing"

	"sendforget/internal/analyzers/framework"
	"sendforget/internal/rng"
)

func fixture(name string) string {
	return filepath.Join("testdata", "src", name)
}

func TestDetrandFixture(t *testing.T) {
	framework.RunFixture(t, fixture("detrand"), Detrand)
}

// The seedflow and lockdiscipline fixtures outlived their analyzers: they
// pin the site rules seedtaint and lockreach took over.
func TestSeedflowFixture(t *testing.T) {
	framework.RunFixture(t, fixture("seedtaint/seedflow"), Seedtaint)
}

func TestLockdisciplineFixture(t *testing.T) {
	framework.RunFixture(t, fixture("lockreach/lockdiscipline"), Lockreach)
}

func TestCounterbalanceFixture(t *testing.T) {
	framework.RunFixture(t, fixture("counterbalance"), Counterbalance)
}

// A ledger double count, replayed: a second Deliveries++ outside the driver.
func TestLedgerplantFixture(t *testing.T) {
	framework.RunFixture(t, fixture("ledgerplant"), Counterbalance)
}

func TestMaporderFixture(t *testing.T) {
	framework.RunFixture(t, fixture("maporder"), Maporder)
}

func TestSeedtaintFixture(t *testing.T) {
	framework.RunFixture(t, fixture("seedtaint"), Seedtaint)
}

func TestLockreachFixture(t *testing.T) {
	framework.RunFixture(t, fixture("lockreach"), Lockreach)
}

func TestGoroleakFixture(t *testing.T) {
	framework.RunFixture(t, fixture("goroleak"), Goroleak)
}

func TestErrdropFixture(t *testing.T) {
	framework.RunFixture(t, fixture("errdrop"), Errdrop)
}

// TestSeedtaintSeesWhatSeedflowMisses pins the gap that justifies the
// interprocedural engine: every flagged case in the seedtaint fixture hides
// its arithmetic behind a helper whose parameters are not seed-named, so
// none of the site rules seedtaint inherited from the syntactic seedflow
// analyzer fires on the package — all three findings come from following
// the taint through calls and fields to the rng.New sink, the PR 3
// collision scheme end to end.
func TestSeedtaintSeesWhatSeedflowMisses(t *testing.T) {
	diags, err := framework.FixtureDiagnostics(fixture("seedtaint"), Seedtaint)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 3 {
		t.Fatalf("want 3 seedtaint diagnostics (helper, inline, field), got %d: %v", len(diags), diags)
	}
	for _, d := range diags {
		if !strings.Contains(d.Message, "arithmetic-derived seed reaches rng.New") {
			t.Errorf("a site rule sees through the helper: %s", d)
		}
	}
}

// TestSeedflowCatchesPR3Collision is the regression test for the PR 3 seed
// bug: the cluster derived node u's initial stream from Seed+u+1 and its
// rejoin stream from Seed+u+7919, so a rejoining node u replayed the
// initial stream of node u+7918. The test asserts (a) seedtaint flags both
// derivations in the replayed scheme, (b) the historical scheme really does
// collide, and (c) rng.DeriveSeed on the same part tuples does not.
func TestSeedflowCatchesPR3Collision(t *testing.T) {
	dir := fixture("seedcollision")
	framework.RunFixture(t, dir, Seedtaint)

	diags, err := framework.FixtureDiagnostics(dir, Seedtaint)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 2 {
		t.Fatalf("want 2 seedtaint diagnostics for the PR 3 scheme, got %d: %v", len(diags), diags)
	}

	// (b) The collision itself: node u's rejoin stream equals node
	// w = u+7918's initial stream under the additive scheme.
	const seed = 42
	const u = int64(3)
	w := u + 7918
	rejoin := rng.New(seed + u + 7919)
	initial := rng.New(seed + w + 1)
	for i := 0; i < 8; i++ {
		if got, want := rejoin.Uint64(), initial.Uint64(); got != want {
			t.Fatalf("draw %d: expected the historical additive scheme to collide (got %d vs %d)", i, got, want)
		}
	}

	// (c) DeriveSeed decorrelates the same part tuples.
	a := rng.New(rng.DeriveSeed(seed, u, 7919))
	b := rng.New(rng.DeriveSeed(seed, w, 1))
	identical := true
	for i := 0; i < 8; i++ {
		if a.Uint64() != b.Uint64() {
			identical = false
			break
		}
	}
	if identical {
		t.Fatal("rng.DeriveSeed streams collide on the PR 3 part tuples")
	}
}

// TestRepoClean re-runs the full suite over the whole module as one
// program — so the interprocedural analyzers see every cross-package call
// edge, exactly as cmd/sfvet does — pinning the "sfvet runs clean"
// invariant into the ordinary test run.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the entire module")
	}
	loader, err := framework.NewLoader("")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("loader returned no packages")
	}
	prog := framework.NewProgram(pkgs)
	diags, err := prog.AnalyzeAll(All(), 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
