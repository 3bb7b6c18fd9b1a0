// Package seedtaint exercises the seedtaint analyzer: an arithmetic-derived
// seed must not reach rng.New through *any* chain of assignments and calls.
//
// Every flagged case here is deliberately invisible to the site rules the
// seedflow fixture covers — the arithmetic is hidden behind helpers whose
// parameters are not seed-named, which is exactly how the PR 3 collision
// scheme survived review. TestSeedtaintSeesWhatSeedflowMisses asserts that
// gap: every finding on this package is a flow into rng.New.
package seedtaint

import "sendforget/internal/rng"

// seedFor is the PR 3 bug shape extracted into a helper: additive per-arm
// seeds collide across experiment arms. Its parameters are not seed-named,
// so the site rules' naming heuristic never looks inside.
func seedFor(base int64, u int64) int64 {
	return base + u + 1
}

// perArm is the call site that made the historical bug: syntactically clean,
// interprocedurally a derived seed.
func perArm(seed int64, arm int64) *rng.RNG {
	s := seedFor(seed, arm)
	return rng.New(s) // want `arithmetic-derived seed reaches rng.New`
}

// perArmInline routes the helper result straight into the sink.
func perArmInline(seed int64, arm int64) *rng.RNG {
	return rng.New(seedFor(seed, arm)) // want `arithmetic-derived seed reaches rng.New`
}

// mix hides multiplicative derivation one more call deep.
func mix(a, b int64) int64 {
	return a ^ b*7919
}

// armConfig carries a seed through a struct field; the taint is field-based.
type armConfig struct {
	Seed int64
}

func viaField(seed int64, u int64) *rng.RNG {
	c := armConfig{Seed: mix(seed, u)}
	return rng.New(c.Seed) // want `arithmetic-derived seed reaches rng.New`
}

// Sanctioned shapes below: plain seeds, DeriveSeed — including DeriveSeed
// hidden behind a helper, which sanitizes the chain.

func plain(seed int64) *rng.RNG {
	return rng.New(seed)
}

func derived(seed int64, u int64) *rng.RNG {
	return rng.New(rng.DeriveSeed(seed, u))
}

// goodFor mirrors seedFor but uses the sanctioned mixer; its result is a
// clean seed no matter how it is routed.
func goodFor(base int64, u int64) int64 {
	return rng.DeriveSeed(base, u)
}

func goodPerArm(seed int64, arm int64) *rng.RNG {
	s := goodFor(seed, arm)
	return rng.New(s)
}

// cleanConfig is a distinct type from armConfig on purpose: field taint is
// per field object, and a clean field must stay clean.
type cleanConfig struct {
	Seed int64
}

func viaCleanField(seed int64, u int64) *rng.RNG {
	c := cleanConfig{Seed: rng.DeriveSeed(seed, u)}
	return rng.New(c.Seed)
}

// The escape hatch: a regression harness reproducing the historical
// collision on purpose.
func historical(seed int64, u int64) *rng.RNG {
	//lint:allow seedtaint reproduces the PR 3 collision on purpose
	return rng.New(seedFor(seed, u))
}
