package analysis

import (
	"fmt"

	"sendforget/internal/markov"
)

// DependenceChain materializes the two-state dependence Markov chain of
// Figure 7.1 used in the proof of Lemma 7.9. A nonempty view entry is
// either independent (state 0) or dependent (state 1); per non-self-loop
// transformation involving the entry:
//
//   - independent -> dependent with probability at most (3/2)(l+delta):
//     the entry is duplicated (<= l+delta, Lemma 6.7), inflated by the <= 1/2
//     probability that a previously sent dependent copy returns (Lemma 7.8);
//   - dependent -> independent with probability at least (5/6)(1-(l+delta)):
//     the entry moves without duplication (>= 1-(l+delta)) and is not a
//     self-edge (the self-edge fraction beta is at most 1/6 under
//     Assumption 7.7).
func DependenceChain(l, delta float64) (*markov.CSR, error) {
	if err := checkRates(l, delta); err != nil {
		return nil, err
	}
	toDep := 1.5 * (l + delta)
	toIndep := 5.0 / 6.0 * (1 - (l + delta))
	if toDep > 1 {
		toDep = 1
	}
	c := markov.NewSparse(2)
	c.Add(0, 1, toDep)
	c.Add(0, 0, 1-toDep)
	c.Add(1, 0, toIndep)
	c.Add(1, 1, 1-toIndep)
	return c.Finalize(), nil
}

// DependentFraction returns the stationary probability of the dependent
// state of the Figure 7.1 chain — the expected fraction of transformations
// an entry spends dependent, which Lemma 7.9 bounds by 2(l+delta).
func DependentFraction(l, delta float64) (float64, error) {
	if err := checkRates(l, delta); err != nil {
		return 0, err
	}
	toDep := 1.5 * (l + delta)
	toIndep := 5.0 / 6.0 * (1 - (l + delta))
	if toDep+toIndep == 0 {
		return 0, nil
	}
	return toDep / (toDep + toIndep), nil
}

// VerifyLemma79Algebra checks, for the given rates, that the stationary
// dependent fraction of the Figure 7.1 chain is at most 2(l+delta) — the
// final inequality in the proof of Lemma 7.9. It returns the fraction and
// the bound.
func VerifyLemma79Algebra(l, delta float64) (fraction, bound float64, err error) {
	fraction, err = DependentFraction(l, delta)
	if err != nil {
		return 0, 0, err
	}
	bound = 2 * (l + delta)
	if bound > 1 {
		bound = 1
	}
	if fraction > bound+1e-12 {
		return fraction, bound, fmt.Errorf("analysis: dependent fraction %v exceeds Lemma 7.9 bound %v", fraction, bound)
	}
	return fraction, bound, nil
}
