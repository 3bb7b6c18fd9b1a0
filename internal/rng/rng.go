// Package rng provides the deterministic pseudo-random source used by every
// stochastic component in the repository.
//
// The generator is xoshiro256** seeded through SplitMix64, implemented from
// scratch so that experiment results are reproducible bit-for-bit across Go
// releases (math/rand's global source and shuffling order are not stable
// guarantees we want to depend on). The API mirrors the small slice of
// math/rand the protocols need, plus the sampling helpers the paper's
// protocol steps require (uniform distinct pairs, Bernoulli trials).
//
// This package is the only sanctioned randomness source in the repository.
// Simulation and analysis code must not import math/rand, math/rand/v2, or
// crypto/rand, and must not read the wall clock for anything that feeds a
// protocol decision — the detrand analyzer (cmd/sfvet) enforces both
// mechanically. Seeds for derived streams come from DeriveSeed, never from
// arithmetic on other seeds (the seedtaint analyzer enforces that). The one
// entropy escape is AutoSeed in this package, which wraps crypto/rand
// behind an audited `//lint:allow detrand` directive so that even
// nondeterministic seeding for production nodes enters through here.
package rng

import "math/bits"

// RNG is a deterministic pseudo-random number generator. It is not safe for
// concurrent use; give each goroutine its own generator, seeded through
// DeriveSeed.
type RNG struct {
	s [4]uint64
}

// splitMix64 advances a SplitMix64 state and returns the next output. It is
// used to expand seeds into full xoshiro state, as recommended by the
// xoshiro authors.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from seed. Distinct seeds yield independent
// streams for all practical purposes.
func New(seed int64) *RNG {
	r := new(RNG)
	*r = NewState(seed)
	return r
}

// NewState returns a seeded generator by value, producing the same stream as
// New(seed). Engines that keep one generator per node (the sharded cluster
// stores them in a flat slice indexed by node id) use it to avoid a heap
// object and a pointer chase per node.
func NewState(seed int64) RNG {
	var r RNG
	sm := uint64(seed)
	for i := range r.s {
		r.s[i] = splitMix64(&sm)
	}
	// A state of all zeros is the one invalid xoshiro state; SplitMix64
	// cannot produce four zero outputs in a row, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

// DeriveSeed hashes the parts into a well-mixed seed via SplitMix64. Callers
// that spawn one stream per entity (the cluster's per-node RNGs, keyed by
// cluster seed, node id, and incarnation) use it instead of additive
// arithmetic like seed+id+constant, whose streams collide whenever two
// derivations sum to the same value. The result is never 0 so it survives
// "0 means derive a default" conventions.
func DeriveSeed(parts ...int64) int64 {
	// Each part both perturbs and advances the SplitMix64 state, so
	// (a, b) and (b, a) — and any equal-sum combination — hash differently.
	h := uint64(0x6a09e667f3bcc909)
	for _, p := range parts {
		h ^= uint64(p)
		h = splitMix64(&h)
	}
	if h == 0 {
		h = 0x9e3779b97f4a7c15
	}
	return int64(h)
}

// Touch reads the last word of the generator's state and returns it without
// advancing the stream. The value is of no use; a driver that knows which
// generators a batch of steps is about to draw from touches all of them
// first, so that their cache misses overlap (see view.View.Touch).
//
//vet:hotpath
func (r *RNG) Touch() uint64 { return r.s[3] }

// Uint64 returns the next 64 uniformly random bits (xoshiro256**).
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := bits.RotateLeft64(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = bits.RotateLeft64(s[3], 45)
	return result
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	return int(r.uint64n(uint64(n)))
}

// uint64n returns a uniform value in [0, n) using Lemire's unbiased
// multiply-shift rejection method.
func (r *RNG) uint64n(n uint64) uint64 {
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) * 0x1p-53
}

// Bernoulli returns true with probability p. Values of p outside [0,1] are
// clamped (p<=0 never fires, p>=1 always fires).
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Pair returns an ordered pair of distinct uniform indices (i, j) in [0, n).
// This is the "select 1 <= i != j <= s u.a.r." step of the S&F protocol
// (Figure 5.1, line 2). It panics if n < 2.
func (r *RNG) Pair(n int) (i, j int) {
	if n < 2 {
		panic("rng: Pair called with n < 2")
	}
	i = r.Intn(n)
	j = r.Intn(n - 1)
	if j >= i {
		j++
	}
	return i, j
}

// FastPair returns an ordered pair of distinct indices in [0, n) from a
// single 64-bit draw: the word is split into two 32-bit lanes and each lane
// is mapped by multiply-shift. The per-lane deviation from uniform is below
// n/2^32 — invisible at protocol view sizes — and the draw mapping differs
// from Pair, so the two are not stream-compatible under a shared seed. The
// sharded substrate's batch step cores use this to halve the RNG cost of
// pair selection. Requires 2 <= n <= 1<<31; it panics if n < 2.
func (r *RNG) FastPair(n int) (i, j int) {
	if n < 2 {
		panic("rng: FastPair called with n < 2")
	}
	x := r.Uint64()
	i = int((x >> 32) * uint64(n) >> 32)
	j = int((x & 0xffffffff) * uint64(n-1) >> 32)
	if j >= i {
		j++
	}
	return i, j
}

// Shuffle performs a Fisher-Yates shuffle of n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Choose returns k distinct uniform indices from [0, n) in random order,
// sampled without replacement (Floyd's algorithm would also work; for the
// small k used here a partial Fisher-Yates is simplest). It panics if k > n
// or k < 0.
func (r *RNG) Choose(n, k int) []int {
	if k < 0 || k > n {
		panic("rng: Choose called with k out of range")
	}
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + r.Intn(n-i)
		p[i], p[j] = p[j], p[i]
	}
	return p[:k]
}
