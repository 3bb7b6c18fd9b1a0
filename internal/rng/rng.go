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
// mechanically. A stream is seeded from a Seed, which DeriveSeed makes from
// any tuple of integers; an int64 does not reach New without a conversion,
// and detrand reports arithmetic on a Seed and a conversion to one outside
// the entry points that own a run's root seed. The one
// entropy escape is AutoSeed in this package, which wraps crypto/rand
// behind an audited `//lint:allow detrand` directive so that even
// nondeterministic seeding for production nodes enters through here.
package rng

import "math/bits"

// RNG is a deterministic pseudo-random number generator. It is not safe for
// concurrent use; give each goroutine its own generator, seeded through
// DeriveSeed.
type RNG struct {
	s0, s1, s2, s3 uint64
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

// Seed selects a stream. Distinct seeds yield independent streams for all
// practical purposes, and DeriveSeed is how one is made from several parts:
// additive schemes such as seed+id+1 collide whenever two derivations sum
// to the same value. A run's root seed is an int64 (a flag, a config
// field); it becomes a Seed once, where a stream is seeded from it.
type Seed int64

// New returns a generator seeded from seed.
func New(seed Seed) *RNG {
	r := new(RNG)
	*r = NewState(seed)
	return r
}

// NewState returns a seeded generator by value, producing the same stream as
// New(seed). Engines that keep one generator per node (the sharded cluster
// stores them in a flat slice indexed by node id) use it to avoid a heap
// object and a pointer chase per node.
func NewState(seed Seed) RNG {
	sm := uint64(seed)
	r := RNG{splitMix64(&sm), splitMix64(&sm), splitMix64(&sm), splitMix64(&sm)}
	// A state of all zeros is the one invalid xoshiro state; SplitMix64
	// cannot produce four zero outputs in a row, but guard anyway.
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s0 = 0x9e3779b97f4a7c15
	}
	return r
}

// DeriveSeed hashes the parts into a well-mixed seed via SplitMix64. Callers
// that spawn one stream per entity (the cluster's per-node RNGs, keyed by
// cluster seed, node id, and incarnation) use it instead of additive
// arithmetic like seed+id+constant, whose streams collide whenever two
// derivations sum to the same value. The result is never 0 so it survives
// "0 means derive a default" conventions.
func DeriveSeed(parts ...int64) Seed {
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
	return Seed(h)
}

// State returns the generator's position in its stream, which FromState
// resumes: a step log records it, and a replay draws what the step drew.
func (r *RNG) State() [4]uint64 { return [4]uint64{r.s0, r.s1, r.s2, r.s3} }

// FromState returns the generator at state s, as State reported it.
func FromState(s [4]uint64) RNG { return RNG{s[0], s[1], s[2], s[3]} }

// Touch reads the last word of the generator's state and returns it without
// advancing the stream. The value is of no use; a driver that knows which
// generators a batch of steps is about to draw from touches all of them
// first, so that their cache misses overlap (see view.View.Touch).
//
//vet:hotpath
func (r *RNG) Touch() uint64 { return r.s3 }

// Uint64 returns the next 64 uniformly random bits (xoshiro256**). The
// state is read into locals and written back whole, which the compiler
// prices low enough to inline this step into every caller — FastPair,
// Bernoulli, Float64 and uint64n included — so a draw is no call of its own.
func (r *RNG) Uint64() uint64 {
	s1 := r.s1
	s2 := r.s2 ^ r.s0
	s3 := r.s3 ^ s1
	*r = RNG{r.s0 ^ s3, s1 ^ s2, s2 ^ s1<<17, bits.RotateLeft64(s3, 45)}
	return bits.RotateLeft64(s1*5, 7) * 9
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
// clamped (p<=0 never fires, p>=1 always fires) and draw nothing. The
// clamps come first in one test so that the whole trial, draw included,
// inlines into the loss models and the fault stack.
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 || p >= 1 {
		return p >= 1
	}
	return float64(r.Uint64()>>11)*0x1p-53 < p // r.Float64() < p, spelled out: the call's cost would not fit
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
// pair selection. Requires 2 <= n <= 1<<31; it panics if n < 2. The draw
// inlines into it, so a pair is one call; the mapping is past the inlining
// budget by itself, and the pair with it (cost 103 against 80).
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
