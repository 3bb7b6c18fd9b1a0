// Package stats provides the statistical machinery the experiments use:
// an online moment accumulator, binomial reference curves (Figures 6.1 and
// 6.3) and pmf moments, total-variation and Kolmogorov-Smirnov distances,
// and the chi-square uniformity test behind Lemma 7.6, built on an
// incomplete gamma implemented from scratch.
package stats

import (
	"fmt"
	"math"
)

// Accumulator tracks count, mean, and variance online using Welford's
// algorithm. The zero value is ready to use.
type Accumulator struct {
	n    int
	mean float64
	m2   float64
}

// Add folds x into the accumulator.
func (a *Accumulator) Add(x float64) {
	a.n++
	delta := x - a.mean
	a.mean += delta / float64(a.n)
	a.m2 += delta * (x - a.mean)
}

// Mean returns the sample mean (0 when empty).
func (a *Accumulator) Mean() float64 { return a.mean }

// Variance returns the population variance (dividing by n, matching the
// paper's use of distribution variance; 0 when n < 1).
func (a *Accumulator) Variance() float64 {
	if a.n < 1 {
		return 0
	}
	return a.m2 / float64(a.n)
}

// StdDev returns the population standard deviation.
func (a *Accumulator) StdDev() float64 { return math.Sqrt(a.Variance()) }

// String summarizes the accumulator as "mean ± stddev (n=...)".
func (a *Accumulator) String() string {
	return fmt.Sprintf("%.4g ± %.4g (n=%d)", a.Mean(), a.StdDev(), a.n)
}
