package analysis

import (
	"fmt"
	"math"
)

// expectedConductanceBound returns the Lemma 7.14 lower bound on the
// expected conductance of the global MC graph:
//
//	Phi(G) >= dE*(dE-1)*alpha / (2*s*(s-1))
func expectedConductanceBound(s int, dE, alpha float64) (float64, error) {
	if s < 2 {
		return 0, fmt.Errorf("analysis: view size %d too small", s)
	}
	if dE < 1 || dE > float64(s) {
		return 0, fmt.Errorf("analysis: expected outdegree %v outside [1, s]", dE)
	}
	if alpha <= 0 || alpha > 1 {
		return 0, fmt.Errorf("analysis: alpha %v outside (0, 1]", alpha)
	}
	return dE * (dE - 1) * alpha / (2 * float64(s) * float64(s-1)), nil
}

// TemporalIndependenceBound returns the Lemma 7.15 upper bound on the
// number of transformations needed, starting from a random steady state, to
// reach a state epsilon-independent of it:
//
//	tau <= 16 s^2 (s-1)^2 / (dE^2 (dE-1)^2 alpha^2) * (n*s*log n + log(4/eps))
//
// For zero loss and alpha = 1 this is O(n*s*log n) transformations, i.e.
// O(s*log n) actions initiated per node.
func TemporalIndependenceBound(n, s int, dE, alpha, eps float64) (float64, error) {
	if n < 2 {
		return 0, fmt.Errorf("analysis: n %d too small", n)
	}
	if eps <= 0 || eps >= 1 {
		return 0, fmt.Errorf("analysis: eps %v outside (0, 1)", eps)
	}
	if _, err := expectedConductanceBound(s, dE, alpha); err != nil {
		return 0, err
	}
	sf := float64(s)
	pre := 16 * sf * sf * (sf - 1) * (sf - 1) / (dE * dE * (dE - 1) * (dE - 1) * alpha * alpha)
	return pre * (float64(n)*sf*math.Log(float64(n)) + math.Log(4/eps)), nil
}
