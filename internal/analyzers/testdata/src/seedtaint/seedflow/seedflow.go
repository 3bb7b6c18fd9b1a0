// Package seedflow exercises seedtaint's site rules: RNG seeds must come
// from rng.DeriveSeed, never from arithmetic on other seeds.
package seedflow

import "sendforget/internal/rng"

// Params mirrors the experiment parameter structs whose Seed field feeds
// per-point engines.
type Params struct {
	Seed int64
}

// Config mirrors an engine config with a Seed field.
type Config struct {
	Seed int64
}

// perPoint is the PR 3 bug shape: additive per-index seeds collide across
// experiment arms.
func perPoint(p Params, i int) *rng.RNG {
	return rng.New(p.Seed + int64(i)) // want `rng.New seeded with an arithmetic expression`
}

func derive(seed int64, i int) int64 {
	return seed + int64(i) // want `seed derived by arithmetic \(\+\)`
}

func deriveMul(seed int64, u int) int64 {
	return seed ^ int64(u)*7919 // want `seed derived by arithmetic \(\^\)`
}

func configure(base int64, u int) Config {
	return Config{Seed: base*7919 + int64(u)} // want `field Seed set from an arithmetic expression`
}

func reseed(seed int64, u int64) int64 {
	seed = 1 + seed // want `seed variable assigned from an arithmetic expression`
	_ = u
	return seed
}

// Sanctioned shapes below: hashing through DeriveSeed, or arithmetic that
// never touches a seed.

func goodPerPoint(p Params, i int) *rng.RNG {
	return rng.New(rng.DeriveSeed(p.Seed, int64(i)))
}

func goodConfigure(base int64, u int) Config {
	return Config{Seed: rng.DeriveSeed(base, int64(u))}
}

func index(i, j int) int {
	return i*100 + j
}

// Plural "seeds" names bootstrap id lists, not RNG seeds; len arithmetic on
// them stays legal.
func bootstrapCount(seeds []int64) int {
	return len(seeds) + 1
}

// The escape hatch: a regression harness reproducing the historical bug on
// purpose.
func historicalScheme(seed int64, u int64) int64 {
	//lint:allow seedtaint reproduces the PR 3 collision on purpose
	return seed + u + 1
}
