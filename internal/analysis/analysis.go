// Package analysis implements the paper's closed-form results: the
// analytical degree distribution of Section 6.1 (Eq. 6.1), the threshold
// selection rule of Section 6.3, the duplication bracket of Lemma 6.7, the
// id-decay and join-integration bounds of Section 6.5 (Lemmas 6.9-6.13,
// Corollary 6.14), the spatial-independence bound of Lemma 7.9, the
// connectivity threshold of Section 7.4, and the temporal-independence bound
// of Lemma 7.15.
package analysis

import (
	"fmt"
	"math"

	"sendforget/internal/stats"
)

// OutdegreeDist returns the analytical approximation of the steady-state
// outdegree distribution (Eq. 6.1) for sum degree dm under no loss with
// dL = 0: Pr(d(u) = d) ~ a(d) / sum a(d'), where
//
//	a(d) = C(dm, d) * C(dm-d, (dm-d)/2)
//
// over even d in [0, dm]. The returned slice is indexed by degree (odd
// entries zero).
func OutdegreeDist(dm int) ([]float64, error) {
	if dm <= 0 || dm%2 != 0 {
		return nil, fmt.Errorf("analysis: sum degree must be positive and even, got %d", dm)
	}
	logA := make([]float64, dm+1)
	maxLog := math.Inf(-1)
	for d := 0; d <= dm; d += 2 {
		la := stats.LogChoose(dm, d) + stats.LogChoose(dm-d, (dm-d)/2)
		logA[d] = la
		if la > maxLog {
			maxLog = la
		}
	}
	dist := make([]float64, dm+1)
	sum := 0.0
	for d := 0; d <= dm; d += 2 {
		dist[d] = math.Exp(logA[d] - maxLog)
		sum += dist[d]
	}
	for d := 0; d <= dm; d += 2 {
		dist[d] /= sum
	}
	return dist, nil
}

// IndegreeDist returns the analytical indegree distribution implied by
// Eq. 6.1: Pr(din = (dm-d)/2) = Pr(d(u) = d). Indexed by indegree.
func IndegreeDist(dm int) ([]float64, error) {
	out, err := OutdegreeDist(dm)
	if err != nil {
		return nil, err
	}
	dist := make([]float64, dm/2+1)
	for d := 0; d <= dm; d += 2 {
		dist[(dm-d)/2] = out[d]
	}
	return dist, nil
}

// Thresholds computes the rule-of-thumb parameters of Section 6.3: given the
// desired lossless expected outdegree dHat and the maximum duplication and
// deletion probability delta, it returns
//
//	dL = max{ d' even <= dHat : Pr(d <= d') <= delta }
//	s  = min{ d' even >= dHat : Pr(d >= d') <= delta }
//
// under the analytical distribution with dm = 3*dHat (Lemma 6.3). The
// paper's worked example: dHat = 30, delta = 0.01 gives dL = 18, s = 40.
// Using Eq. 6.1 directly, the upper tail at 40 is ~0.025, giving s = 42; the
// paper's s = 40 corresponds to the slightly narrower exact degree-MC
// distribution, which ThresholdsFromDist accepts (the tab6.3 experiment
// reports both).
func Thresholds(dHat int, delta float64) (dl, s int, err error) {
	if dHat <= 0 || dHat%2 != 0 {
		return 0, 0, fmt.Errorf("analysis: dHat must be positive and even, got %d", dHat)
	}
	dm := 3 * dHat
	dist, err := OutdegreeDist(dm)
	if err != nil {
		return 0, 0, err
	}
	return ThresholdsFromDist(dist, dHat, delta)
}

// ThresholdsFromDist applies the Section 6.3 rule to an arbitrary outdegree
// pmf (indexed by degree), e.g. the exact distribution from the degree MC.
func ThresholdsFromDist(dist []float64, dHat int, delta float64) (dl, s int, err error) {
	if dHat <= 0 || dHat%2 != 0 {
		return 0, 0, fmt.Errorf("analysis: dHat must be positive and even, got %d", dHat)
	}
	if delta <= 0 || delta >= 0.5 {
		return 0, 0, fmt.Errorf("analysis: delta must be in (0, 0.5), got %v", delta)
	}
	dm := len(dist) - 1
	if dm < dHat {
		return 0, 0, fmt.Errorf("analysis: distribution support %d below dHat %d", dm, dHat)
	}
	// Lower threshold: largest even d' <= dHat with P(d <= d') <= delta.
	// The running sums include odd degrees for robustness against
	// empirical distributions with off-parity mass.
	cdf := 0.0
	dl = -1
	for d := 0; d <= dHat; d++ {
		cdf += dist[d]
		if d%2 == 0 && cdf <= delta {
			dl = d
		}
	}
	if dl < 0 {
		dl = 0
	}
	// Upper threshold: smallest even d' >= dHat with P(d >= d') <= delta.
	tail := 0.0
	s = -1
	for d := dm; d >= dHat; d-- {
		tail += dist[d]
		if d%2 == 0 && tail <= delta {
			s = d
		}
	}
	if s < 0 {
		return 0, 0, fmt.Errorf("analysis: no feasible upper threshold for dHat=%d delta=%v", dHat, delta)
	}
	return dl, s, nil
}

// SurvivalBound returns the Lemma 6.9/6.10 upper bound on the probability
// that an id instance present at round t0 is still in some view i rounds
// later:
//
//	(1 - (1-l-delta)*dL / s^2)^i
//
// The returned slice has rounds+1 entries (index = rounds elapsed).
func SurvivalBound(l, delta float64, dl, s, rounds int) ([]float64, error) {
	if err := checkRates(l, delta); err != nil {
		return nil, err
	}
	if dl < 0 || s <= 0 || dl > s {
		return nil, fmt.Errorf("analysis: invalid degrees dL=%d s=%d", dl, s)
	}
	if rounds < 0 {
		return nil, fmt.Errorf("analysis: negative rounds %d", rounds)
	}
	perRound := 1 - (1-l-delta)*float64(dl)/float64(s*s)
	if perRound < 0 {
		perRound = 0
	}
	out := make([]float64, rounds+1)
	out[0] = 1
	for i := 1; i <= rounds; i++ {
		out[i] = out[i-1] * perRound
	}
	return out, nil
}

// HalfLife returns the smallest round count i at which SurvivalBound falls
// to at most 1/2. For the paper's example (dL=18, s=40, small l+delta) this
// is about 70 rounds ("after merely 70 rounds ... fewer than 50% of the id
// instances of a left/failed node are expected to remain").
func HalfLife(l, delta float64, dl, s int) (int, error) {
	if err := checkRates(l, delta); err != nil {
		return 0, err
	}
	if dl <= 0 || s <= 0 || dl > s {
		return 0, fmt.Errorf("analysis: invalid degrees dL=%d s=%d", dl, s)
	}
	perRound := 1 - (1-l-delta)*float64(dl)/float64(s*s)
	if perRound >= 1 || perRound <= 0 {
		return 0, fmt.Errorf("analysis: degenerate decay rate %v", perRound)
	}
	return int(math.Ceil(math.Log(0.5) / math.Log(perRound))), nil
}

// JoinerIntegration returns the Lemma 6.13 quantities: within the first
// rounds = s^2 / ((1-l-delta)*dL) rounds, a newly joined node is expected to
// create at least (dL/s)^2 * Din id instances. Corollary 6.14: for s/dL = 2
// and l+delta << 1 this reads "after 2s rounds, at least Din/4 instances".
func JoinerIntegration(l, delta float64, dl, s int, din float64) (rounds float64, instances float64, err error) {
	if err := checkRates(l, delta); err != nil {
		return 0, 0, err
	}
	if dl <= 0 || s <= 0 || dl > s {
		return 0, 0, fmt.Errorf("analysis: invalid degrees dL=%d s=%d", dl, s)
	}
	rounds = float64(s*s) / ((1 - l - delta) * float64(dl))
	ratio := float64(dl) / float64(s)
	instances = ratio * ratio * din
	return rounds, instances, nil
}

// AlphaLowerBound returns the Lemma 7.9 lower bound on the expected
// fraction of independent view entries: alpha >= 1 - 2(l+delta).
func AlphaLowerBound(l, delta float64) (float64, error) {
	if err := checkRates(l, delta); err != nil {
		return 0, err
	}
	a := 1 - 2*(l+delta)
	if a < 0 {
		a = 0
	}
	return a, nil
}

// DuplicationBounds returns the Lemma 6.7 bracket on the steady-state
// duplication probability: l <= dup <= l + delta.
func DuplicationBounds(l, delta float64) (lo, hi float64, err error) {
	if err := checkRates(l, delta); err != nil {
		return 0, 0, err
	}
	return l, l + delta, nil
}

// ConnectivityMinDL returns the minimal dL such that, modeling the number
// of independent ids in a view as Binomial(dL, alpha) with
// alpha = 1 - 2(l+delta), the probability of fewer than 3 independent
// out-neighbors is at most eps (Section 7.4: "for l = delta = 1% and
// eps = 1e-30, dL should be set to at least 26"; three independent
// out-neighbors suffice for weak connectivity by [15]).
func ConnectivityMinDL(l, delta, eps float64) (int, error) {
	if err := checkRates(l, delta); err != nil {
		return 0, err
	}
	if eps <= 0 || eps >= 1 {
		return 0, fmt.Errorf("analysis: eps must be in (0, 1), got %v", eps)
	}
	alpha, err := AlphaLowerBound(l, delta)
	if err != nil {
		return 0, err
	}
	if alpha <= 0 {
		return 0, fmt.Errorf("analysis: alpha bound is 0 at l=%v delta=%v; no dL suffices", l, delta)
	}
	const maxDL = 10000
	for dl := 3; dl <= maxDL; dl++ {
		if stats.BinomialCDF(dl, 2, alpha) <= eps {
			return dl, nil
		}
	}
	return 0, fmt.Errorf("analysis: no dL up to %d satisfies eps=%v", maxDL, eps)
}

// checkRates validates loss and duplication-slack rates.
func checkRates(l, delta float64) error {
	if l < 0 || l >= 1 {
		return fmt.Errorf("analysis: loss rate %v outside [0, 1)", l)
	}
	if delta < 0 || delta >= 1 {
		return fmt.Errorf("analysis: delta %v outside [0, 1)", delta)
	}
	if l+delta >= 1 {
		return fmt.Errorf("analysis: l+delta = %v >= 1", l+delta)
	}
	return nil
}
