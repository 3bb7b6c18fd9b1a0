package analyzers

import (
	"path/filepath"
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
// pin what detrand's seed sites and lockreach took over.
func TestSeedflowFixture(t *testing.T) {
	framework.RunFixture(t, fixture("seedtaint/seedflow"), Detrand)
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

func TestLockreachFixture(t *testing.T) {
	framework.RunFixture(t, fixture("lockreach"), Lockreach)
}

func TestGoroleakFixture(t *testing.T) {
	framework.RunFixture(t, fixture("goroleak"), Goroleak)
}

func TestErrdropFixture(t *testing.T) {
	framework.RunFixture(t, fixture("errdrop"), Errdrop)
}

// TestSeedflowCatchesPR3Collision is the regression test for the PR 3 seed
// bug: the cluster derived node u's initial stream from Seed+u+1 and its
// rejoin stream from Seed+u+7919, so a rejoining node u replayed the
// initial stream of node u+7918. The test asserts (a) neither derivation of
// the replayed scheme type-checks (TestCompilerPlants holds the errors to
// the planted lines), (b) the historical scheme really does collide, and
// (c) rng.DeriveSeed on the same part tuples does not.
func TestSeedflowCatchesPR3Collision(t *testing.T) {
	_, err := framework.FixtureDiagnostics(fixture("seedcollision"), All()...)
	if lines := typeErrorLines(err); len(lines) != 2 {
		t.Fatalf("want both derivations of the additive scheme to fail to type-check; loading gave: %v", err)
	}

	// (b) The collision itself: node u's rejoin stream equals node
	// w = u+7918's initial stream under the additive scheme.
	const seed = 42
	const u = int64(3)
	w := u + 7918
	rejoin := rng.New(rng.Seed(seed + u + 7919))
	initial := rng.New(rng.Seed(seed + w + 1))
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
	for _, d := range framework.NewProgram(pkgs).Run(All()) {
		t.Errorf("%s", d)
	}
}
