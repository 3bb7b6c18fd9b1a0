package markov

import (
	"fmt"
	"math"

	"sendforget/internal/stats"
)

// CSR is a compressed-sparse-row transition matrix over states 0..N()-1: all
// entries live in two flat arrays indexed by rowPtr, giving the
// power-iteration kernel a linear, cache-friendly scan with no per-row slice
// headers. Build one by finalizing a Sparse. The structure (rowPtr, cols) is
// immutable; the probabilities may be rewritten in place via Row by builders
// that re-weight a fixed sparsity pattern (the degree-MC fixed point does
// this every outer round). A rewritten pattern may leave some slots at
// weight 0; every algorithm here treats those as absent edges.
type CSR struct {
	n      int
	rowPtr []int32
	cols   []int32
	probs  []float64
}

// N returns the number of states.
func (m *CSR) N() int { return m.n }

// Row exposes row i's column indices (sorted, do not mutate) and its weight
// slots (mutable). Builders that solve a family of chains over one sparsity
// pattern rewrite the weights in place instead of rebuilding the structure.
func (m *CSR) Row(i int) (cols []int32, probs []float64) {
	return m.cols[m.rowPtr[i]:m.rowPtr[i+1]], m.probs[m.rowPtr[i]:m.rowPtr[i+1]]
}

// Validate checks that every row of m sums to 1 within tolerance.
func Validate(m *CSR) error {
	const tol = 1e-9
	for i := 0; i < m.n; i++ {
		_, probs := m.Row(i)
		sum := 0.0
		bad := false
		for _, p := range probs {
			sum += p
			if p < 0 || p > 1+tol {
				bad = true
			}
		}
		if bad || math.Abs(sum-1) > tol {
			return fmt.Errorf("markov: row %d sums to %v", i, sum)
		}
	}
	return nil
}

// stepInto computes out = dist * P into a caller-provided buffer in one pass
// over the rows in ascending order, so out[j] is the sum of dist[i]*P[i][j]
// with i ascending — the same association a dense loop gives. The power
// iteration reuses two buffers to avoid per-step allocation.
func (m *CSR) stepInto(dist, out []float64) {
	for j := range out {
		out[j] = 0
	}
	rowPtr := m.rowPtr
	for i, p := range dist {
		if p == 0 {
			continue
		}
		s, e := rowPtr[i], rowPtr[i+1]
		cols := m.cols[s:e]
		probs := m.probs[s:e:e]
		for k, c := range cols {
			out[c] += p * probs[k]
		}
	}
}

// Step advances a distribution one transition: out = dist * P.
func Step(m *CSR, dist []float64) []float64 {
	out := make([]float64, m.n)
	m.stepInto(dist, out)
	return out
}

// Stationary computes the stationary distribution by power iteration from
// init (uniform if nil), stopping when successive distributions are within
// tol in total variation. It returns the distribution and the number of
// iterations used, or an error if maxIter is exhausted.
func Stationary(m *CSR, init []float64, tol float64, maxIter int) ([]float64, int, error) {
	n := m.n
	if n == 0 {
		return nil, 0, fmt.Errorf("markov: empty chain")
	}
	dist := make([]float64, n)
	if init == nil {
		for i := range dist {
			dist[i] = 1 / float64(n)
		}
	} else {
		if len(init) != n {
			return nil, 0, fmt.Errorf("markov: init length %d != states %d", len(init), n)
		}
		copy(dist, init)
	}
	next := make([]float64, n)
	for iter := 1; iter <= maxIter; iter++ {
		m.stepInto(dist, next)
		if stats.TotalVariation(dist, next) < tol {
			return next, iter, nil
		}
		dist, next = next, dist
	}
	return nil, maxIter, fmt.Errorf("markov: power iteration did not converge in %d iterations", maxIter)
}
