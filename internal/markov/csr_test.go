package markov

import (
	"fmt"
	"testing"

	"sendforget/internal/rng"
)

// buildDenseRows constructs an n-state chain whose rows each receive perRow
// Adds with many duplicate columns — the access pattern of the global-chain
// and degree-MC builders, which enumerate events independently and rely on
// Add to accumulate.
func buildDenseRows(n, perRow int, seed int64) *Sparse {
	r := rng.New(rng.Seed(seed))
	s := NewSparse(n)
	for i := 0; i < n; i++ {
		for k := 0; k < perRow; k++ {
			// Half the column range: every other Add hits an existing entry.
			s.Add(i, r.Intn(n/2+1), 1/float64(2*perRow))
		}
	}
	return s
}

// randomChain builds a random stochastic Sparse chain with duplicate Adds
// sprinkled in, plus a normalized random distribution over its states.
func randomChain(r *rng.RNG, n int) (*Sparse, []float64) {
	s := NewSparse(n)
	for i := 0; i < n; i++ {
		entries := 1 + r.Intn(5)
		weights := make([]float64, entries)
		sum := 0.0
		for k := range weights {
			weights[k] = r.Float64() + 0.01
			sum += weights[k]
		}
		for k := range weights {
			col := r.Intn(n)
			p := weights[k] / sum
			if r.Bernoulli(0.3) {
				// Split the mass over two Adds to exercise accumulation.
				s.Add(i, col, p/2)
				s.Add(i, col, p-p/2)
			} else {
				s.Add(i, col, p)
			}
		}
	}
	dist := make([]float64, n)
	sum := 0.0
	for i := range dist {
		dist[i] = r.Float64()
		sum += dist[i]
	}
	for i := range dist {
		dist[i] /= sum
	}
	return s, dist
}

func TestFinalizeDedupAndSort(t *testing.T) {
	s := NewSparse(3)
	s.Add(0, 2, 0.25)
	s.Add(0, 1, 0.25)
	s.Add(0, 2, 0.25)
	s.Add(0, 0, 0.25)
	s.Add(1, 1, 1)
	s.Add(2, 0, 1)
	m := s.Finalize()
	if m.N() != 3 {
		t.Fatalf("N = %d", m.N())
	}
	cols, probs := m.Row(0)
	if len(cols) != 3 {
		t.Fatalf("row 0 has %d entries after dedup, want 3", len(cols))
	}
	wantCols := []int32{0, 1, 2}
	wantP := []float64{0.25, 0.25, 0.5}
	for k := range cols {
		if cols[k] != wantCols[k] || !almostEqual(probs[k], wantP[k], 1e-15) {
			t.Errorf("row 0 slot %d = (%d, %v), want (%d, %v)", k, cols[k], probs[k], wantCols[k], wantP[k])
		}
	}
	if err := Validate(m); err != nil {
		t.Fatal(err)
	}
}

// TestCSRMatchesSparseStep is the property test for Finalize: for random
// chains (with duplicate Adds), stepping the finalized CSR agrees with
// stepping the builder's raw, uncompacted Adds.
func TestCSRMatchesSparseStep(t *testing.T) {
	r := rng.New(99)
	for trial := 0; trial < 50; trial++ {
		n := 2 + r.Intn(40)
		s, dist := randomChain(r, n)
		want := make([]float64, n)
		for i, row := range s.rows {
			for _, e := range row {
				want[e.col] += dist[i] * e.p
			}
		}
		got := Step(s.Finalize(), dist)
		for j := range want {
			if !almostEqual(got[j], want[j], 1e-12) {
				t.Fatalf("trial %d: Step differs at %d: csr %v raw adds %v", trial, j, got[j], want[j])
			}
		}
	}
}

// denseStep is the reference kernel: a dense loop over every (i, j) pair,
// out[j] += dist[i]*P[i][j] with i ascending, one row of P expanded at a
// time so the reference needs O(n) memory.
func denseStep(m *CSR, dist []float64) []float64 {
	n := m.N()
	out := make([]float64, n)
	row := make([]float64, n)
	for i := 0; i < n; i++ {
		cols, probs := m.Row(i)
		for k, c := range cols {
			row[c] = probs[k]
		}
		for j := 0; j < n; j++ {
			out[j] += dist[i] * row[j]
		}
		for _, c := range cols {
			row[c] = 0
		}
	}
	return out
}

// TestStepMatchesDenseReference requires Step to reproduce the dense
// reference bit for bit: both sum each column's contributions with the row
// index ascending, and the dense loop's extra terms are exact zeros.
func TestStepMatchesDenseReference(t *testing.T) {
	r := rng.New(5)
	chains := map[string]*CSR{}
	dists := map[string][]float64{}
	for _, n := range []int{7, 500, 5000} {
		s, dist := randomChain(r, n)
		name := fmt.Sprintf("random-%d", n)
		chains[name], dists[name] = s.Finalize(), dist
	}
	// Row 1 is a pure self-loop; row 2 carries no mass in dist.
	s := NewSparse(4)
	s.Add(0, 1, 0.25)
	s.Add(0, 3, 0.75)
	s.Add(1, 1, 1)
	s.Add(2, 0, 1)
	s.Add(3, 2, 0.5)
	s.Add(3, 0, 0.5)
	chains["self-loop-row"], dists["self-loop-row"] = s.Finalize(), []float64{0.1, 0.6, 0, 0.3}
	for name, m := range chains {
		dist := dists[name]
		for step := 0; step < 3; step++ {
			got, want := Step(m, dist), denseStep(m, dist)
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("%s step %d: out[%d] = %x, dense reference %x", name, step, j, got[j], want[j])
				}
			}
			dist = got
		}
	}
}

// TestCSRRowRewrite checks the in-place weight rewrite path the degree-MC
// solver uses: zero the weights, write new ones, and step correctly.
func TestCSRRowRewrite(t *testing.T) {
	s := NewSparse(2)
	s.Add(0, 0, 0.5)
	s.Add(0, 1, 0.5)
	s.Add(1, 0, 0.5)
	s.Add(1, 1, 0.5)
	m := s.Finalize()
	// Rewrite to the (0.3, 0.6) two-state chain.
	_, p0 := m.Row(0)
	p0[0], p0[1] = 0.7, 0.3
	_, p1 := m.Row(1)
	p1[0], p1[1] = 0.6, 0.4
	pi, _, err := Stationary(m, nil, 1e-12, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(pi[0], 2.0/3.0, 1e-9) || !almostEqual(pi[1], 1.0/3.0, 1e-9) {
		t.Errorf("stationary after rewrite = %v, want [2/3 1/3]", pi)
	}
}

func BenchmarkSparseChainBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := buildDenseRows(400, 400, 7)
		if err := s.CloseRows(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFinalize(b *testing.B) {
	s := buildDenseRows(400, 400, 7)
	if err := s.CloseRows(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Finalize()
	}
}

// BenchmarkStep measures one power-iteration step on a random
// (full-bandwidth) 5,000-state chain.
func BenchmarkStep(b *testing.B) {
	s, _ := randomChain(rng.New(3), 5000)
	m := s.Finalize()
	dist := make([]float64, m.N())
	for i := range dist {
		dist[i] = 1 / float64(m.N())
	}
	out := make([]float64, m.N())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.stepInto(dist, out)
	}
}
