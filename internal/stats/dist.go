package stats

import "math"

// LogChoose returns log of the binomial coefficient C(n, k) using the
// log-gamma function, avoiding overflow for the large coefficients of
// Eq (6.1) (e.g. C(90, 45)).
func LogChoose(n, k int) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	return lgamma(float64(n)+1) - lgamma(float64(k)+1) - lgamma(float64(n-k)+1)
}

// BinomialPMF returns P(X = k) for X ~ Binomial(n, p).
func BinomialPMF(n, k int, p float64) float64 {
	if k < 0 || k > n {
		return 0
	}
	if p <= 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	if p >= 1 {
		if k == n {
			return 1
		}
		return 0
	}
	lp := LogChoose(n, k) + float64(k)*math.Log(p) + float64(n-k)*math.Log(1-p)
	return math.Exp(lp)
}

// BinomialCDF returns P(X <= k) for X ~ Binomial(n, p), by direct summation
// (n is small in this repository).
func BinomialCDF(n, k int, p float64) float64 {
	if k < 0 {
		return 0
	}
	if k >= n {
		return 1
	}
	s := 0.0
	for i := 0; i <= k; i++ {
		s += BinomialPMF(n, i, p)
	}
	if s > 1 {
		s = 1
	}
	return s
}

// BinomialDist returns the full pmf of Binomial(n, p) over 0..n. Figures 6.1
// and 6.3 plot it as the reference curve with the same expectation as the
// S&F degree distributions.
func BinomialDist(n int, p float64) []float64 {
	pmf := make([]float64, n+1)
	for k := range pmf {
		pmf[k] = BinomialPMF(n, k, p)
	}
	return pmf
}

// DistMean returns the mean of a pmf indexed by value (pmf[v] = P(X = v)).
func DistMean(pmf []float64) float64 {
	m := 0.0
	for v, p := range pmf {
		m += float64(v) * p
	}
	return m
}

// DistVariance returns the variance of a pmf indexed by value.
func DistVariance(pmf []float64) float64 {
	m := DistMean(pmf)
	s := 0.0
	for v, p := range pmf {
		d := float64(v) - m
		s += d * d * p
	}
	return s
}

// DistStdDev returns the standard deviation of a pmf indexed by value.
func DistStdDev(pmf []float64) float64 { return math.Sqrt(DistVariance(pmf)) }

// TotalVariation returns the total-variation distance between two pmfs,
// 0.5 * sum |p_i - q_i|. Shorter vectors are zero-padded.
func TotalVariation(p, q []float64) float64 {
	n := len(p)
	if len(q) > n {
		n = len(q)
	}
	s := 0.0
	for i := 0; i < n; i++ {
		var pi, qi float64
		if i < len(p) {
			pi = p[i]
		}
		if i < len(q) {
			qi = q[i]
		}
		s += math.Abs(pi - qi)
	}
	return s / 2
}

// KSDistance returns the Kolmogorov-Smirnov statistic between two pmfs over
// the same integer support: the maximum absolute difference of their CDFs.
func KSDistance(p, q []float64) float64 {
	n := len(p)
	if len(q) > n {
		n = len(q)
	}
	maxD, cp, cq := 0.0, 0.0, 0.0
	for i := 0; i < n; i++ {
		if i < len(p) {
			cp += p[i]
		}
		if i < len(q) {
			cq += q[i]
		}
		if d := math.Abs(cp - cq); d > maxD {
			maxD = d
		}
	}
	return maxD
}
