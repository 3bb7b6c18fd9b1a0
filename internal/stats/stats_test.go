package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestAccumulator(t *testing.T) {
	var a Accumulator
	if a.Mean() != 0 || a.Variance() != 0 || a.String() != "0 ± 0 (n=0)" {
		t.Fatal("zero-value accumulator not empty")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Add(x)
	}
	if !almostEqual(a.Mean(), 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", a.Mean())
	}
	if !almostEqual(a.Variance(), 4, 1e-12) {
		t.Errorf("Variance = %v, want 4", a.Variance())
	}
	if !almostEqual(a.StdDev(), 2, 1e-12) {
		t.Errorf("StdDev = %v, want 2", a.StdDev())
	}
	if got := a.String(); got != "5 ± 2 (n=8)" {
		t.Errorf("String = %q, want %q", got, "5 ± 2 (n=8)")
	}
}

func TestAccumulatorSingleValue(t *testing.T) {
	var a Accumulator
	a.Add(3)
	if a.Mean() != 3 || a.Variance() != 0 {
		t.Errorf("single observation: mean=%v var=%v", a.Mean(), a.Variance())
	}
}

func TestChoose(t *testing.T) {
	tests := []struct {
		n, k int
		want float64
	}{
		{5, 0, 1}, {5, 5, 1}, {5, 2, 10}, {10, 3, 120}, {0, 0, 1},
		{5, 6, 0}, {5, -1, 0},
	}
	for _, tt := range tests {
		if got := math.Exp(LogChoose(tt.n, tt.k)); !almostEqual(got, tt.want, 1e-9*math.Max(1, tt.want)) {
			t.Errorf("exp(LogChoose(%d,%d)) = %v, want %v", tt.n, tt.k, got, tt.want)
		}
	}
	// Large value sanity: C(90,45) ~ 1.038e26, checked against exact
	// integer arithmetic.
	if got := math.Exp(LogChoose(90, 45)); got < 1.03e26 || got > 1.05e26 {
		t.Errorf("exp(LogChoose(90,45)) = %v, want ~1.038e26", got)
	}
}

func TestBinomialPMF(t *testing.T) {
	if got := BinomialPMF(4, 2, 0.5); !almostEqual(got, 0.375, 1e-12) {
		t.Errorf("BinomialPMF(4,2,0.5) = %v, want 0.375", got)
	}
	if got := BinomialPMF(10, 0, 0); got != 1 {
		t.Errorf("BinomialPMF(10,0,0) = %v, want 1", got)
	}
	if got := BinomialPMF(10, 10, 1); got != 1 {
		t.Errorf("BinomialPMF(10,10,1) = %v, want 1", got)
	}
	if got := BinomialPMF(10, 3, 0); got != 0 {
		t.Errorf("BinomialPMF(10,3,0) = %v, want 0", got)
	}
	if got := BinomialPMF(10, 11, 0.5); got != 0 {
		t.Errorf("out-of-range k = %v, want 0", got)
	}
	// pmf sums to 1.
	s := 0.0
	for k := 0; k <= 30; k++ {
		s += BinomialPMF(30, k, 0.3)
	}
	if !almostEqual(s, 1, 1e-9) {
		t.Errorf("Binomial(30,0.3) pmf sums to %v", s)
	}
}

func TestBinomialCDF(t *testing.T) {
	if got := BinomialCDF(4, 4, 0.5); got != 1 {
		t.Errorf("CDF at n = %v, want 1", got)
	}
	if got := BinomialCDF(4, -1, 0.5); got != 0 {
		t.Errorf("CDF below 0 = %v, want 0", got)
	}
	want := 0.0625 + 0.25 // P(0)+P(1) for n=4, p=0.5
	if got := BinomialCDF(4, 1, 0.5); !almostEqual(got, want, 1e-12) {
		t.Errorf("BinomialCDF(4,1,0.5) = %v, want %v", got, want)
	}
}

func TestBinomialDistMoments(t *testing.T) {
	pmf := BinomialDist(40, 0.7)
	if !almostEqual(DistMean(pmf), 28, 1e-9) {
		t.Errorf("mean = %v, want 28", DistMean(pmf))
	}
	if !almostEqual(DistVariance(pmf), 8.4, 1e-9) {
		t.Errorf("variance = %v, want 8.4", DistVariance(pmf))
	}
	if !almostEqual(DistStdDev(pmf), math.Sqrt(8.4), 1e-9) {
		t.Errorf("stddev = %v", DistStdDev(pmf))
	}
}

func TestTotalVariation(t *testing.T) {
	p := []float64{0.5, 0.5}
	q := []float64{1, 0}
	if got := TotalVariation(p, q); !almostEqual(got, 0.5, 1e-12) {
		t.Errorf("TV = %v, want 0.5", got)
	}
	if got := TotalVariation(p, p); got != 0 {
		t.Errorf("TV(p,p) = %v, want 0", got)
	}
	// Different lengths: pad with zeros.
	if got := TotalVariation([]float64{1}, []float64{0.5, 0.5}); !almostEqual(got, 0.5, 1e-12) {
		t.Errorf("padded TV = %v, want 0.5", got)
	}
}

func TestKSDistance(t *testing.T) {
	p := []float64{0.5, 0.5, 0}
	q := []float64{0, 0.5, 0.5}
	if got := KSDistance(p, q); !almostEqual(got, 0.5, 1e-12) {
		t.Errorf("KS = %v, want 0.5", got)
	}
	if got := KSDistance(p, p); got != 0 {
		t.Errorf("KS(p,p) = %v, want 0", got)
	}
}

func TestRegularizedGamma(t *testing.T) {
	// P(1, x) = 1 - exp(-x).
	for _, x := range []float64{0.1, 1, 2.5, 10} {
		got, err := RegularizedGammaP(1, x)
		if err != nil {
			t.Fatalf("P(1,%v): %v", x, err)
		}
		want := 1 - math.Exp(-x)
		if !almostEqual(got, want, 1e-10) {
			t.Errorf("P(1,%v) = %v, want %v", x, got, want)
		}
	}
	// P(a, 0) = 0; Q(a, 0) = 1.
	p, err := RegularizedGammaP(3, 0)
	if err != nil || p != 0 {
		t.Errorf("P(3,0) = %v, %v; want 0", p, err)
	}
	// Known value: P(0.5, x) = erf(sqrt(x)).
	for _, x := range []float64{0.25, 1, 4} {
		got, err := RegularizedGammaP(0.5, x)
		if err != nil {
			t.Fatal(err)
		}
		want := math.Erf(math.Sqrt(x))
		if !almostEqual(got, want, 1e-10) {
			t.Errorf("P(0.5,%v) = %v, want %v", x, got, want)
		}
	}
	if _, err := RegularizedGammaP(-1, 1); err == nil {
		t.Error("accepted a <= 0")
	}
	if _, err := RegularizedGammaP(1, -1); err == nil {
		t.Error("accepted x < 0")
	}
}

func TestChiSquarePValue(t *testing.T) {
	// ChiSquare(2) survival at x is exp(-x/2): P(X >= 5.991) ~ 0.05.
	got, err := ChiSquarePValue(5.991, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got, 0.05, 1e-3) {
		t.Errorf("p-value = %v, want ~0.05", got)
	}
	if _, err := ChiSquarePValue(1, 0); err == nil {
		t.Error("accepted df=0")
	}
	if _, err := ChiSquarePValue(-1, 2); err == nil {
		t.Error("accepted negative statistic")
	}
}

func TestChiSquareStatErrors(t *testing.T) {
	if _, err := ChiSquareStat([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("accepted length mismatch")
	}
	if _, err := ChiSquareStat([]float64{1}, []float64{0}); err == nil {
		t.Error("accepted zero expectation with positive observation")
	}
	// Zero expectation with zero observation is fine (cell skipped).
	stat, err := ChiSquareStat([]float64{0, 2}, []float64{0, 2})
	if err != nil || stat != 0 {
		t.Errorf("stat = %v, err = %v; want 0, nil", stat, err)
	}
}

func TestChiSquareUniformTest(t *testing.T) {
	// Perfectly uniform counts: statistic 0, p-value 1.
	stat, p, err := ChiSquareUniformTest([]int{100, 100, 100, 100})
	if err != nil {
		t.Fatal(err)
	}
	if stat != 0 || !almostEqual(p, 1, 1e-12) {
		t.Errorf("uniform counts: stat=%v p=%v", stat, p)
	}
	// Extremely skewed counts: p-value ~ 0.
	_, p, err = ChiSquareUniformTest([]int{1000, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if p > 1e-10 {
		t.Errorf("skewed counts p-value = %v, want ~0", p)
	}
	if _, _, err := ChiSquareUniformTest([]int{5}); err == nil {
		t.Error("accepted single cell")
	}
	if _, _, err := ChiSquareUniformTest([]int{0, 0}); err == nil {
		t.Error("accepted empty counts")
	}
	if _, _, err := ChiSquareUniformTest([]int{-1, 2}); err == nil {
		t.Error("accepted negative count")
	}
}

func TestQuickAccumulatorMatchesDirect(t *testing.T) {
	f := func(xs []float64) bool {
		var clean []float64
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e6 {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		var a Accumulator
		sum := 0.0
		for _, x := range clean {
			a.Add(x)
			sum += x
		}
		mean := sum / float64(len(clean))
		return almostEqual(a.Mean(), mean, 1e-6*(1+math.Abs(mean)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickTVBounds(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) < 2 {
			return true
		}
		sum := 0.0
		for _, r := range raw {
			sum += float64(r)
		}
		if sum == 0 {
			return true
		}
		p := make([]float64, len(raw))
		for i, r := range raw {
			p[i] = float64(r) / sum
		}
		q := make([]float64, len(p))
		q[0] = 1
		tv := TotalVariation(p, q)
		return tv >= 0 && tv <= 1+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
