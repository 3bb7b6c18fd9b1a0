// Package seedtaint plants the additive seed scheme behind helpers whose
// parameters are not seed-named, which is how the collision survived
// review: the additive derivation lived in a helper, syntactically far from
// the rng.New it fed. The helpers return int64, and an int64 is not an
// rng.Seed, so every plant fails to type-check wherever it is routed —
// through a local, straight into the call, or through a struct field.
package seedtaint

import "sendforget/internal/rng"

// seedFor is the PR 3 bug shape extracted into a helper: additive per-arm
// seeds collide across experiment arms.
func seedFor(base int64, u int64) int64 {
	return base + u + 1
}

// perArm is the call site that made the historical bug.
func perArm(seed int64, arm int64) *rng.RNG {
	s := seedFor(seed, arm)
	return rng.New(s) // the planted local
}

// perArmInline routes the helper result straight into the call.
func perArmInline(seed int64, arm int64) *rng.RNG {
	return rng.New(seedFor(seed, arm)) // the planted call
}

// mix hides multiplicative derivation one more call deep.
func mix(a, b int64) int64 {
	return a ^ b*7919
}

// armConfig carries a seed through a struct field.
type armConfig struct {
	Seed int64
}

func viaField(seed int64, u int64) *rng.RNG {
	c := armConfig{Seed: mix(seed, u)}
	return rng.New(c.Seed) // the planted field
}

// Sanctioned shapes below: a Seed passed along, DeriveSeed, and DeriveSeed
// hidden behind a helper or a field.

func plain(seed rng.Seed) *rng.RNG {
	return rng.New(seed)
}

func derived(seed int64, u int64) *rng.RNG {
	return rng.New(rng.DeriveSeed(seed, u))
}

func goodFor(base int64, u int64) rng.Seed {
	return rng.DeriveSeed(base, u)
}

func goodPerArm(seed int64, arm int64) *rng.RNG {
	s := goodFor(seed, arm)
	return rng.New(s)
}

type cleanConfig struct {
	Seed rng.Seed
}

func viaCleanField(seed int64, u int64) *rng.RNG {
	c := cleanConfig{Seed: rng.DeriveSeed(seed, u)}
	return rng.New(c.Seed)
}
