// Package analyzers is the repository's static-analysis suite: nine
// framework.Analyzers that mechanically enforce the determinism,
// lock-discipline, accounting, allocation, goroutine-lifecycle, and
// concurrency invariants the reproduction's correctness and performance
// arguments rest on.
//
// The paper derives the membership properties M1-M5 under a precisely
// controlled randomness model; the model<->simulation cross-validation in
// the runtime's differential tests and internal/experiments is only evidence
// if the simulator honors that model bit-for-bit. These invariants were previously
// enforced by code review and PR-description convention (PR 2 established
// the lock discipline, PR 3 the seed-derivation rule); this suite promotes
// them to compiler-grade checks run by cmd/sfvet in CI.
//
// Each analyzer runs once over the whole loaded program. Four are syntactic
// checks, package by package:
//
//	detrand        no ambient randomness or wall clock in simulation code,
//	               and no rng.Seed made by arithmetic or by a conversion
//	               outside the packages that own a root seed
//	counterbalance traffic counters move only through their owning package,
//	               and every send is paired with an outcome
//	maporder       no map-iteration order leaking into ordered output
//	atomicmix      no package-level sync/atomic function calls: shared
//	               words are typed atomics, so atomic and plain access
//	               cannot mix
//
// The remaining five are interprocedural, built on the framework's CFG,
// call graph, allocation-site, held-lock, and happens-before engines:
//
//	lockreach nothing that blocks (send, channel op, sleep, wait) while
//	          a mutex is held, written in place or reached through any
//	          chain of calls
//	goroleak  every goroutine in the runtime and commands has a
//	          termination path and a shutdown/sync mechanism
//	errdrop   transport/faults errors are consulted, never discarded
//	hotalloc  no allocation site reachable from a //vet:hotpath root —
//	          the zero-alloc tick guarantee, proved over every branch
//	          instead of sampled by alloc counters
//	sharedguard conflicting accesses to substrate state (runtime, mgmt,
//	          driver, transport) must be excluded by a common lock, run
//	          only in external callers, or touch a not-yet-shared instance
//
// What the type system checks needs no analyzer: a sharded phase worker is
// handed one shard's job and cannot name another shard, a substrate is
// built only through runtime.New, and a stream is seeded from an rng.Seed,
// never from an int64. The fixtures that plant those bugs must fail to
// type-check (the "compiler" rows of TestDetectionMatrix).
//
// TestDetectionMatrix records which analyzer flags which line of every
// fixture, eight planted bugs included; an analyzer or an engine rule is
// merged, replaced or deleted only with that table intact.
//
// Exceptions are granted per line with `//lint:allow <analyzer> <reason>`
// (see the framework package).
package analyzers

import (
	"strings"

	"sendforget/internal/analyzers/framework"
)

// All returns the full suite.
func All() []*framework.Analyzer {
	return []*framework.Analyzer{
		Sharedguard,
		Lockreach,
		Errdrop,
		Hotalloc,
		Detrand,
		Maporder,
		Atomicmix,
		Counterbalance,
		Goroleak,
	}
}

// fixturePackage reports whether path names an analysistest fixture package
// (testdata packages are loaded under their bare directory name, with no
// slash). Fixtures opt in to every scope so each analyzer can be exercised.
func fixturePackage(path string) bool {
	return !strings.Contains(path, "/")
}

// deterministicPackage reports whether the package must be bit-for-bit
// reproducible: every internal package is — the simulators, chains, and
// experiment drivers directly, and the support packages because the
// simulators call them — and so are the command mains (cmd/...), which
// drive experiments whose results must replay from a -seed flag alone.
// Intentional entropy and wall-clock progress timing in commands carry
// explicit `//lint:allow detrand` directives.
func deterministicPackage(path string) bool {
	return fixturePackage(path) ||
		strings.HasPrefix(path, "sendforget/internal/") ||
		strings.HasPrefix(path, "sendforget/cmd/")
}
