package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("same-seed generators diverged at step %d: %d != %d", i, av, bv)
		}
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("distinct seeds produced %d/100 identical outputs", same)
	}
}

func TestZeroSeedValid(t *testing.T) {
	r := New(0)
	if r.Uint64() == 0 && r.Uint64() == 0 && r.Uint64() == 0 {
		t.Error("seed 0 produced a degenerate stream")
	}
}

func TestIntnRange(t *testing.T) {
	r := New(7)
	for _, n := range []int{1, 2, 3, 10, 1000} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	// Chi-square-ish check: each of 10 buckets should get close to 10% of
	// 100k draws. A 5-sigma band on a binomial(1e5, 0.1) is about +-475.
	r := New(99)
	const draws, buckets = 100000, 10
	counts := make([]int, buckets)
	for i := 0; i < draws; i++ {
		counts[r.Intn(buckets)]++
	}
	want := draws / buckets
	for b, c := range counts {
		if math.Abs(float64(c-want)) > 475 {
			t.Errorf("bucket %d: count %d deviates from %d by more than 5 sigma", b, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestBernoulli(t *testing.T) {
	r := New(5)
	if r.Bernoulli(0) {
		t.Error("Bernoulli(0) fired")
	}
	if !r.Bernoulli(1) {
		t.Error("Bernoulli(1) did not fire")
	}
	if r.Bernoulli(-0.5) {
		t.Error("Bernoulli(-0.5) fired")
	}
	if !r.Bernoulli(1.5) {
		t.Error("Bernoulli(1.5) did not fire")
	}
	// Empirical rate of p=0.3 over 100k trials: 5-sigma band ~ +-0.0073.
	const trials = 100000
	hits := 0
	for i := 0; i < trials; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	rate := float64(hits) / trials
	if math.Abs(rate-0.3) > 0.0073 {
		t.Errorf("Bernoulli(0.3) empirical rate %v deviates beyond 5 sigma", rate)
	}
}

func TestPairDistinct(t *testing.T) {
	r := New(11)
	for _, n := range []int{2, 3, 5, 40} {
		for k := 0; k < 500; k++ {
			i, j := r.Pair(n)
			if i == j {
				t.Fatalf("Pair(%d) returned equal indices %d", n, i)
			}
			if i < 0 || i >= n || j < 0 || j >= n {
				t.Fatalf("Pair(%d) = (%d,%d) out of range", n, i, j)
			}
		}
	}
}

func TestPairUniformOverOrderedPairs(t *testing.T) {
	// All n*(n-1) ordered pairs should be equally likely (Proposition 5.2
	// depends on this). n=4 -> 12 pairs; 120k draws -> 10k each; 5-sigma
	// band ~ +-479.
	r := New(13)
	const n, draws = 4, 120000
	counts := make(map[[2]int]int)
	for k := 0; k < draws; k++ {
		i, j := r.Pair(n)
		counts[[2]int{i, j}]++
	}
	if len(counts) != n*(n-1) {
		t.Fatalf("observed %d distinct ordered pairs, want %d", len(counts), n*(n-1))
	}
	want := draws / (n * (n - 1))
	for p, c := range counts {
		if math.Abs(float64(c-want)) > 479 {
			t.Errorf("pair %v: count %d deviates from %d by more than 5 sigma", p, c, want)
		}
	}
}

func TestPairPanicsOnSmallN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Pair(1) did not panic")
		}
	}()
	New(1).Pair(1)
}

func TestChoose(t *testing.T) {
	r := New(19)
	for _, tc := range []struct{ n, k int }{{5, 0}, {5, 3}, {5, 5}, {40, 2}} {
		got := r.Choose(tc.n, tc.k)
		if len(got) != tc.k {
			t.Fatalf("Choose(%d,%d) returned %d items", tc.n, tc.k, len(got))
		}
		seen := map[int]bool{}
		for _, v := range got {
			if v < 0 || v >= tc.n || seen[v] {
				t.Fatalf("Choose(%d,%d) = %v invalid", tc.n, tc.k, got)
			}
			seen[v] = true
		}
	}
}

func TestChoosePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Choose(2,3) did not panic")
		}
	}()
	New(1).Choose(2, 3)
}

func TestQuickIntnInRange(t *testing.T) {
	r := New(31)
	f := func(n uint16, _ uint8) bool {
		m := int(n%1000) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickPairDistinct(t *testing.T) {
	r := New(37)
	f := func(n uint16) bool {
		m := int(n%100) + 2
		i, j := r.Pair(m)
		return i != j && i >= 0 && i < m && j >= 0 && j < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGoldenVectors(t *testing.T) {
	// Regression pin: the exact output stream for fixed seeds. Experiment
	// results are documented against these streams (EXPERIMENTS.md); a
	// change here silently invalidates every recorded number.
	want42 := []uint64{
		0x15780b2e0c2ec716, 0x6104d9866d113a7e, 0xae17533239e499a1, 0xecb8ad4703b360a1,
		0xfde6dc7fe2ec5e64, 0xc50da53101795238, 0xb82154855a65ddb2, 0xd99a2743ebe60087,
	}
	r := New(42)
	for i, want := range want42 {
		if got := r.Uint64(); got != want {
			t.Fatalf("seed 42 output %d = %#x, want %#x", i, got, want)
		}
	}
	wantNeg := []uint64{0x8f5520d52a7ead08, 0xc476a018caa1802d, 0x81de31c0d260469e, 0xbf658d7e065f3c2f}
	r = New(-1)
	for i, want := range wantNeg {
		if got := r.Uint64(); got != want {
			t.Fatalf("seed -1 output %d = %#x, want %#x", i, got, want)
		}
	}
}

func TestDeriveSeed(t *testing.T) {
	// The motivating collisions of the additive scheme: a rejoining node's
	// stream (cluster seed, u, incarnation 1) must not equal any node's
	// initial stream, and equal-sum part combinations must differ.
	seen := make(map[Seed][]int64)
	for u := int64(0); u < 2000; u++ {
		for inc := int64(0); inc < 3; inc++ {
			s := DeriveSeed(1, u, inc)
			if s == 0 {
				t.Fatalf("DeriveSeed(1, %d, %d) = 0", u, inc)
			}
			if prev, dup := seen[s]; dup {
				t.Fatalf("DeriveSeed collision: (1, %d, %d) and %v", u, inc, prev)
			}
			seen[s] = []int64{1, u, inc}
		}
	}
	if DeriveSeed(1, 2) == DeriveSeed(2, 1) {
		t.Error("DeriveSeed is order-insensitive")
	}
	if DeriveSeed(1, 2) != DeriveSeed(1, 2) {
		t.Error("DeriveSeed is not deterministic")
	}
}
