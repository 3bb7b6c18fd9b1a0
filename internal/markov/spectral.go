package markov

import (
	"fmt"
	"math"
)

// SpectralGap estimates the second-largest eigenvalue modulus of the chain
// and the derived relaxation time 1/(1-|lambda2|), by power iteration on
// the component orthogonal to the stationary distribution. Section 7.5
// reasons about mixing through conductance (Lemma 7.14); for chains small
// enough to hold in memory the spectral gap gives the exact asymptotic
// mixing rate to compare the bound against.
//
// pi must be the chain's stationary distribution. The estimate converges
// geometrically at rate |lambda3/lambda2|; maxIter bounds the work.
func SpectralGap(c *CSR, pi []float64, tol float64, maxIter int) (lambda2 float64, relaxation float64, err error) {
	n := c.N()
	if n < 2 {
		return 0, 0, fmt.Errorf("markov: spectral gap needs >= 2 states")
	}
	if len(pi) != n {
		return 0, 0, fmt.Errorf("markov: pi length %d != states %d", len(pi), n)
	}
	// Start from a deterministic vector orthogonal to the all-ones left
	// null direction; project out pi repeatedly to stay in the subspace.
	v := make([]float64, n)
	for i := range v {
		// A fixed pseudo-random-ish pattern avoids symmetric blind spots.
		v[i] = math.Sin(float64(i+1) * 1.61803398875)
	}
	deflate(v, pi)
	if norm1(v) == 0 {
		return 0, 0, fmt.Errorf("markov: degenerate start vector")
	}
	scale(v, 1/norm1(v))
	next := make([]float64, n)
	prev := 0.0
	for iter := 0; iter < maxIter; iter++ {
		c.stepInto(v, next)
		deflate(next, pi)
		lambda := norm1(next)
		if lambda == 0 {
			// The orthogonal complement collapsed in one step: the chain
			// forgets everything immediately (lambda2 = 0).
			return 0, 1, nil
		}
		scale(next, 1/lambda)
		v, next = next, v
		if iter > 3 && math.Abs(lambda-prev) < tol {
			if lambda >= 1 {
				lambda = 1 - 1e-15
			}
			return lambda, 1 / (1 - lambda), nil
		}
		prev = lambda
	}
	return 0, 0, fmt.Errorf("markov: spectral gap estimate did not converge in %d iterations", maxIter)
}

// deflate removes the pi component: v <- v - (sum v)*pi. Left eigenvectors
// of eigenvalue 1 are spanned by pi; subtracting the total mass times pi
// keeps iteration in the complementary invariant subspace.
func deflate(v, pi []float64) {
	total := 0.0
	for _, x := range v {
		total += x
	}
	for i := range v {
		v[i] -= total * pi[i]
	}
}

func norm1(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += math.Abs(x)
	}
	return s
}

func scale(v []float64, f float64) {
	for i := range v {
		v[i] *= f
	}
}
