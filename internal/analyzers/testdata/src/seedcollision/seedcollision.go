// Package seedcollision replays the exact PR 3 bug: the concurrent
// cluster derived a node's protocol stream from Seed+u+1 and its rejoin
// stream from Seed+u+7919, so a rejoining node u replayed the initial
// stream of node u+7918. A stream is seeded from an rng.Seed, and the sum of
// int64s is not one, so neither derivation type-checks; the regression test
// in analyzers_test.go also proves the collision numerically and that
// rng.DeriveSeed removes it.
package seedcollision

import "sendforget/internal/rng"

type clusterConfig struct {
	Seed int64
}

// nodeRNG is the historical initial-stream derivation.
func nodeRNG(cfg clusterConfig, u int64) *rng.RNG {
	return rng.New(cfg.Seed + u + 1) // the planted initial stream
}

// rejoinRNG is the historical rejoin-stream derivation that collides with
// nodeRNG for u' = u + 7918.
func rejoinRNG(cfg clusterConfig, u int64) *rng.RNG {
	return rng.New(cfg.Seed + u + 7919) // the planted rejoin stream
}
