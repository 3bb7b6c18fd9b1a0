// Package seedflow exercises detrand's seed sites: what the rng.Seed type
// lets through. Arithmetic on a Seed and a conversion to one type-check, so
// the analyzer reports them; this package is no root-seed owner, so every
// conversion but the engines' one of a runtime.Config's Seed is reported.
package seedflow

import (
	"sendforget/internal/rng"
	"sendforget/internal/runtime"
)

// Params mirrors the experiment parameter structs whose Seed field feeds
// per-point engines.
type Params struct {
	Seed int64
}

// Config mirrors an engine config with a typed Seed field.
type Config struct {
	Seed rng.Seed
}

// perPoint is the PR 3 bug shape: additive per-index seeds collide across
// experiment arms.
func perPoint(p Params, i int) *rng.RNG {
	return rng.New(rng.Seed(p.Seed + int64(i))) // want `conversion of arithmetic \(\+\) to rng.Seed`
}

func derive(seed rng.Seed, i int) rng.Seed {
	return seed + rng.Seed(i) // want `arithmetic on an rng.Seed \(\+\)` `conversion to rng.Seed`
}

func deriveMul(seed rng.Seed, u rng.Seed) rng.Seed {
	return seed ^ u*7919 // want `arithmetic on an rng.Seed \(\^\)` `arithmetic on an rng.Seed \(\*\)`
}

func configure(base rng.Seed, u rng.Seed) Config {
	return Config{Seed: base*7919 + u} // want `arithmetic on an rng.Seed \(\+\)` `arithmetic on an rng.Seed \(\*\)`
}

func reseed(seed rng.Seed, rejoins int) rng.Seed {
	seed += 1 // want `arithmetic on an rng.Seed \(\+=\)`
	for range rejoins {
		seed++ // want `arithmetic on an rng.Seed \(\+\+\)`
	}
	return seed
}

// nodeStream is the runtime's shape of the collision: a root from the
// config, made into a per-node seed by addition, and converted at the
// stream.
func nodeStream(cfg runtime.Config, u int) rng.RNG {
	x := cfg.Seed + int64(u) + 1
	return rng.NewState(rng.Seed(x)) // want `conversion to rng.Seed in package seedflow`
}

// Sanctioned shapes below: hashing through DeriveSeed, the engines' one
// conversion of a Config's root, comparisons, and arithmetic that never
// touches a Seed.

func goodPerPoint(p Params, i int) *rng.RNG {
	return rng.New(rng.DeriveSeed(p.Seed, int64(i)))
}

func goodConfigure(base int64, u int) Config {
	return Config{Seed: rng.DeriveSeed(base, int64(u))}
}

func engineStream(cfg runtime.Config) *rng.RNG {
	return rng.New(rng.Seed(cfg.Seed))
}

func defaulted(seed rng.Seed, id int64) rng.Seed {
	if seed == 0 {
		return rng.DeriveSeed(id)
	}
	return seed
}

func index(i, j int) int {
	return i*100 + j
}

// The escape hatch: a regression harness reproducing the historical bug on
// purpose.
func historicalScheme(seed rng.Seed, u rng.Seed) rng.Seed {
	//lint:allow detrand reproduces the additive collision on purpose
	return seed + u + 1
}
