package markov

import (
	"math"
	"testing"
	"testing/quick"

	"sendforget/internal/rng"
	"sendforget/internal/stats"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// twoState builds the classic two-state chain with P(0->1)=a, P(1->0)=b.
func twoState(a, b float64) *CSR {
	s := NewSparse(2)
	s.Add(0, 0, 1-a)
	s.Add(0, 1, a)
	s.Add(1, 0, b)
	s.Add(1, 1, 1-b)
	return s.Finalize()
}

// cycle builds the deterministic k-cycle 0 -> 1 -> ... -> k-1 -> 0.
func cycle(k int) *CSR {
	s := NewSparse(k)
	for i := 0; i < k; i++ {
		s.Add(i, (i+1)%k, 1)
	}
	return s.Finalize()
}

// identity builds the n-state chain in which every state is absorbing.
func identity(n int) *CSR {
	s := NewSparse(n)
	for i := 0; i < n; i++ {
		s.Add(i, i, 1)
	}
	return s.Finalize()
}

func TestValidate(t *testing.T) {
	d := twoState(0.3, 0.6)
	if err := Validate(d); err != nil {
		t.Fatalf("valid chain rejected: %v", err)
	}
	bad := NewSparse(2)
	bad.Add(0, 0, 0.5)
	bad.Add(1, 0, 1)
	if err := Validate(bad.Finalize()); err == nil {
		t.Error("row summing to 0.5 accepted")
	}
}

func TestStationaryTwoState(t *testing.T) {
	// Stationary distribution of the (a,b) chain is (b, a)/(a+b).
	d := twoState(0.3, 0.6)
	pi, iters, err := Stationary(d, nil, 1e-12, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if iters <= 0 {
		t.Errorf("iterations = %d", iters)
	}
	if !almostEqual(pi[0], 2.0/3.0, 1e-9) || !almostEqual(pi[1], 1.0/3.0, 1e-9) {
		t.Errorf("stationary = %v, want [2/3 1/3]", pi)
	}
}

func TestStationaryFixedPointProperty(t *testing.T) {
	d := twoState(0.25, 0.15)
	pi, _, err := Stationary(d, nil, 1e-13, 100000)
	if err != nil {
		t.Fatal(err)
	}
	next := Step(d, pi)
	if tv := stats.TotalVariation(pi, next); tv > 1e-10 {
		t.Errorf("pi*P differs from pi by TV %v", tv)
	}
}

func TestStationaryCustomInit(t *testing.T) {
	d := twoState(0.5, 0.5)
	pi, _, err := Stationary(d, []float64{1, 0}, 1e-12, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(pi[0], 0.5, 1e-9) {
		t.Errorf("stationary = %v, want uniform", pi)
	}
	if _, _, err := Stationary(d, []float64{1}, 1e-12, 100); err == nil {
		t.Error("accepted init of wrong length")
	}
}

func TestStationaryNonConvergence(t *testing.T) {
	// The deterministic 2-cycle is periodic: power iteration from a point
	// mass never converges.
	if _, _, err := Stationary(cycle(2), []float64{1, 0}, 1e-12, 50); err == nil {
		t.Error("periodic chain converged from point mass")
	}
}

func TestStationaryEmptyChain(t *testing.T) {
	if _, _, err := Stationary(NewSparse(0).Finalize(), nil, 1e-9, 10); err == nil {
		t.Error("empty chain accepted")
	}
}

func TestSparseAddAccumulates(t *testing.T) {
	s := NewSparse(2)
	s.Add(0, 1, 0.2)
	s.Add(0, 1, 0.3)
	s.Add(0, 0, 0.5)
	s.Add(1, 0, 1)
	m := s.Finalize()
	if err := Validate(m); err != nil {
		t.Fatal(err)
	}
	cols, probs := m.Row(0)
	if len(cols) != 2 {
		t.Fatalf("compacted row 0 has %d entries, want 2", len(cols))
	}
	if got := probs[1]; cols[1] != 1 || !almostEqual(got, 0.5, 1e-12) {
		t.Errorf("accumulated P(0->1) = %v, want 0.5", got)
	}
}

func TestSparseAddZeroIgnored(t *testing.T) {
	s := NewSparse(1)
	s.Add(0, 0, 0)
	if cols, _ := s.Finalize().Row(0); len(cols) != 0 {
		t.Error("zero-probability transition stored")
	}
}

func TestSparseAddPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative probability accepted")
		}
	}()
	NewSparse(1).Add(0, 0, -0.1)
}

// TestSparseStationaryMatchesDense builds the (0.3, 0.6) two-state chain
// with its mass split over several Adds in scrambled order and checks its
// stationary distribution against power iteration with the test-local dense
// reference step.
func TestSparseStationaryMatchesDense(t *testing.T) {
	sparse := NewSparse(2)
	sparse.Add(1, 1, 0.4)
	sparse.Add(0, 1, 0.1)
	sparse.Add(1, 0, 0.6)
	sparse.Add(0, 0, 0.7)
	sparse.Add(0, 1, 0.2)
	m := sparse.Finalize()
	ps, _, err := Stationary(m, nil, 1e-12, 10000)
	if err != nil {
		t.Fatal(err)
	}
	pd := []float64{0.5, 0.5}
	for iter := 0; iter < 10000; iter++ {
		pd = denseStep(m, pd)
	}
	if tv := stats.TotalVariation(pd, ps); tv > 1e-9 {
		t.Errorf("dense and sparse stationary differ by %v", tv)
	}
}

func TestIsIrreducible(t *testing.T) {
	if !IsIrreducible(twoState(0.3, 0.6)) {
		t.Error("connected two-state chain reported reducible")
	}
	// Absorbing state: not irreducible.
	s := NewSparse(2)
	s.Add(0, 1, 1)
	s.Add(1, 1, 1)
	if IsIrreducible(s.Finalize()) {
		t.Error("chain with absorbing state reported irreducible")
	}
	if IsIrreducible(NewSparse(0).Finalize()) {
		t.Error("empty chain reported irreducible")
	}
	// Two disjoint cycles.
	s4 := NewSparse(4)
	s4.Add(0, 1, 1)
	s4.Add(1, 0, 1)
	s4.Add(2, 3, 1)
	s4.Add(3, 2, 1)
	if IsIrreducible(s4.Finalize()) {
		t.Error("disconnected chain reported irreducible")
	}
	// A slot rewritten to weight 0 is not an edge.
	m := twoState(0.3, 0.6)
	_, p1 := m.Row(1)
	p1[0], p1[1] = 0, 1
	if IsIrreducible(m) {
		t.Error("zero-weight slot counted as an edge")
	}
}

func TestPeriod(t *testing.T) {
	// Deterministic k-cycles have period k.
	for _, k := range []int{2, 3, 5} {
		p, err := Period(cycle(k))
		if err != nil {
			t.Fatalf("cycle %d: %v", k, err)
		}
		if p != k {
			t.Errorf("period of %d-cycle = %d", k, p)
		}
	}
	// A self-loop makes any irreducible chain aperiodic.
	s := NewSparse(3)
	s.Add(0, 1, 0.5)
	s.Add(0, 0, 0.5)
	s.Add(1, 2, 1)
	s.Add(2, 0, 1)
	p, err := Period(s.Finalize())
	if err != nil {
		t.Fatal(err)
	}
	if p != 1 {
		t.Errorf("period with self-loop = %d, want 1", p)
	}
	// Reducible chain: error.
	if _, err := Period(identity(2)); err == nil {
		t.Error("Period accepted reducible chain")
	}
	// Single state with self-loop.
	p, err = Period(identity(1))
	if err != nil || p != 1 {
		t.Errorf("single state period = %d, %v", p, err)
	}
}

func TestIsErgodic(t *testing.T) {
	if !IsErgodic(twoState(0.3, 0.6)) {
		t.Error("ergodic chain rejected")
	}
	if IsErgodic(cycle(2)) {
		t.Error("periodic chain reported ergodic")
	}
	if IsErgodic(identity(2)) {
		t.Error("reducible chain reported ergodic")
	}
}

// positiveChain builds an n-state chain with every transition strictly
// positive (hence ergodic), rows normalized to distributions.
func positiveChain(r *rng.RNG, n int, eps float64) *CSR {
	s := NewSparse(n)
	for i := 0; i < n; i++ {
		row := make([]float64, n)
		sum := 0.0
		for j := range row {
			row[j] = r.Float64() + eps
			sum += row[j]
		}
		for j := range row {
			s.Add(i, j, row[j]/sum)
		}
	}
	return s.Finalize()
}

func TestErgodicTheoremEmpirically(t *testing.T) {
	// Random ergodic chains: power iteration from two different starting
	// distributions converges to the same stationary distribution.
	r := rng.New(42)
	for trial := 0; trial < 10; trial++ {
		n := 3 + r.Intn(5)
		d := positiveChain(r, n, 0.01)
		if !IsErgodic(d) {
			t.Fatal("strictly positive chain not ergodic")
		}
		init1 := make([]float64, n)
		init1[0] = 1
		init2 := make([]float64, n)
		init2[n-1] = 1
		p1, _, err1 := Stationary(d, init1, 1e-12, 100000)
		p2, _, err2 := Stationary(d, init2, 1e-12, 100000)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if tv := stats.TotalVariation(p1, p2); tv > 1e-8 {
			t.Errorf("trial %d: different starts gave TV %v", trial, tv)
		}
	}
}

func TestQuickStepPreservesMass(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%6) + 2
		d := positiveChain(rng.New(rng.Seed(seed)), n, 0)
		dist := make([]float64, n)
		dist[0] = 1
		next := Step(d, dist)
		mass := 0.0
		for _, p := range next {
			mass += p
		}
		return almostEqual(mass, 1, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestSpectralGapTwoState(t *testing.T) {
	// The (a, b) two-state chain has lambda2 = 1 - a - b exactly.
	for _, ab := range [][2]float64{{0.3, 0.6}, {0.1, 0.1}, {0.45, 0.45}} {
		a, b := ab[0], ab[1]
		d := twoState(a, b)
		pi, _, err := Stationary(d, nil, 1e-13, 1000000)
		if err != nil {
			t.Fatal(err)
		}
		l2, relax, err := SpectralGap(d, pi, 1e-12, 100000)
		if err != nil {
			t.Fatal(err)
		}
		want := math.Abs(1 - a - b)
		if math.Abs(l2-want) > 1e-8 {
			t.Errorf("a=%v b=%v: lambda2 = %v, want %v", a, b, l2, want)
		}
		if want < 1 && math.Abs(relax-1/(1-want)) > 1e-6*relax {
			t.Errorf("relaxation = %v, want %v", relax, 1/(1-want))
		}
	}
}

func TestSpectralGapImmediateForgetting(t *testing.T) {
	// A chain whose every row equals pi forgets in one step: lambda2 = 0.
	s := NewSparse(3)
	for i := 0; i < 3; i++ {
		s.Add(i, 0, 0.5)
		s.Add(i, 1, 0.3)
		s.Add(i, 2, 0.2)
	}
	pi := []float64{0.5, 0.3, 0.2}
	l2, relax, err := SpectralGap(s.Finalize(), pi, 1e-12, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if l2 > 1e-9 || relax != 1 {
		t.Errorf("lambda2 = %v relaxation = %v, want 0 and 1", l2, relax)
	}
}

func TestSpectralGapValidation(t *testing.T) {
	d := twoState(0.3, 0.6)
	if _, _, err := SpectralGap(d, []float64{1}, 1e-9, 100); err == nil {
		t.Error("accepted wrong-length pi")
	}
	if _, _, err := SpectralGap(identity(1), []float64{1}, 1e-9, 100); err == nil {
		t.Error("accepted single-state chain")
	}
}
