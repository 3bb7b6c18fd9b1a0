package main

import (
	"hash/fnv"
	"math"
	"sort"

	"sendforget/internal/metrics"
	"sendforget/internal/view"
)

// Stat is one reported metric: the median of its samples, their quartiles
// and count, and the samples themselves so that -compare can pool runs.
type Stat struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples,omitempty"`
}

// statOf summarises samples as their median with quartiles.
func statOf(unit string, samples []float64) Stat {
	q1, med, q3 := quartiles(samples)
	return Stat{Value: med, Unit: unit, Q1: q1, Q3: q3, N: len(samples), Samples: samples}
}

// dist reports the p-quantile of a sample, with the sample's quartiles and
// size beside it.
func dist(unit string, xs []float64, p float64) Stat {
	q1, _, q3 := quartiles(xs)
	return Stat{Value: percentile(xs, p), Unit: unit, Q1: q1, Q3: q3, N: len(xs)}
}

// scalar is a metric with a single observation (a count, a ratio, a total).
func scalar(unit string, v float64) Stat {
	return Stat{Value: v, Unit: unit, Q1: v, Q3: v, N: 1}
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the p-quantile (0 <= p <= 1) of xs by linear
// interpolation between closest ranks; 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (the exclusive method), so the spread
// printed here is the spread the acceptance driver computes. Fewer than two
// samples have no spread: all three are the sample (or 0).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return xs[0], xs[0], xs[0]
	}
	s := sorted(xs)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median.
func (s Stat) spread() float64 {
	if s.Value == 0 {
		return 0
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Value)
}

// stateDigest is FNV-1a over every view slot (a departed node hashes as a
// marker) followed by the traffic ledger: equal digests mean two runs ended
// in the same overlay with the same message history.
func stateDigest(views []*view.View, t metrics.Traffic) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v int64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, v := range views {
		if v == nil {
			put(-2)
			continue
		}
		for i := 0; i < v.Size(); i++ {
			put(int64(v.Slot(i)))
		}
	}
	for _, f := range []int{t.Sends, t.Losses, t.Deliveries, t.DeadLetters, t.LinkLosses, t.PartitionDrops, t.Delayed} {
		put(int64(f))
	}
	return h.Sum64()
}
