// Package equivalence is the cross-substrate harness behind Proposition
// 5.2: the three execution backends behind runtime.Substrate (the
// sequential discrete-event engine, the goroutine-per-node cluster, and
// the sharded tick engine) drive the same per-node step cores, so — up to
// scheduling randomness — they must induce statistically matching
// overlays. The harness builds each backend through runtime.New from the
// same core factory (hence the same circulant bootstrap topology) under
// the same loss model, drives all of them with one identical round loop,
// checks the protocol's per-view invariant on every resulting view, and
// summarizes each overlay's in-degree distribution so tests can assert the
// substrates agree pairwise (small Kolmogorov-Smirnov distance, close mean
// degrees).
//
// All runs are fully deterministic: every backend is seeded and ticked
// manually round by round (no timers, no goroutine scheduling influence on
// protocol state — the sharded engine is bit-reproducible for any worker
// count by construction).
package equivalence

import (
	"fmt"

	"sendforget/internal/faults"
	"sendforget/internal/graph"
	"sendforget/internal/metrics"
	"sendforget/internal/peer"
	"sendforget/internal/protocol"
	"sendforget/internal/rng"
	"sendforget/internal/runtime"
	"sendforget/internal/stats"
	"sendforget/internal/view"
)

// Config describes one cross-substrate comparison run.
type Config struct {
	// N is the number of nodes, Rounds the number of gossip rounds (each
	// round is one initiated action per node on both substrates).
	N, Rounds int
	// Loss is the uniform message loss rate applied on both substrates,
	// ignored when NewConditions is set.
	Loss float64
	// NewConditions, when non-nil, builds the fault-injection stack for
	// one substrate. It is called once per substrate: stateful conditions
	// (burst models, delay queues) must not be shared between the two
	// runs, or the engine's draws would perturb the cluster's channel
	// state and vice versa.
	NewConditions func() (*faults.Conditions, error)
	// Seed drives both substrates (with distinct derived streams).
	Seed int64
	// InitDegree is the circulant bootstrap outdegree, shared by all
	// substrates (runtime.New wires the same initial overlay everywhere).
	InitDegree int
	// NewCore builds one fresh step core per node, on every substrate.
	NewCore protocol.CoreFactory
	// ShardedWorkers bounds the sharded substrate's worker pool (0 selects
	// the engine's default). The sharded engine is bit-reproducible for any
	// worker count, so this only affects wall-clock time.
	ShardedWorkers int
}

// Substrate summarizes one substrate's final overlay.
type Substrate struct {
	Views   []*view.View
	Traffic metrics.Traffic
	// Counters is the substrate's protocol-event tally; its rates
	// (duplications and deleted ids per send) are equal in law across
	// substrates, like the overlay statistics.
	Counters runtime.NodeCounters
	// InDegreePMF[k] is the fraction of nodes with in-degree k.
	InDegreePMF []float64
	MeanOut     float64
	MeanIn      float64
	SelfEdges   int
}

// Result groups the three substrate summaries with their pairwise
// comparison stats.
type Result struct {
	Engine  Substrate
	Cluster Substrate
	Sharded Substrate
	// KS is the Kolmogorov-Smirnov distance between the engine's and the
	// cluster's in-degree distributions (the original two-substrate
	// comparison; the name predates the third substrate).
	KS float64
	// KSEngineSharded and KSClusterSharded are the distances pairing the
	// sharded tick engine with each of the other substrates.
	KSEngineSharded  float64
	KSClusterSharded float64
}

// Run executes the comparison. Beyond building the summaries it validates,
// on every substrate, the protocol's own per-view invariant (via a fresh
// probe core's CheckView) and the hard view-size bound.
func Run(cfg Config) (*Result, error) {
	if cfg.N < 2 || cfg.Rounds < 1 {
		return nil, fmt.Errorf("equivalence: need n >= 2 and rounds >= 1")
	}
	if cfg.NewCore == nil {
		return nil, fmt.Errorf("equivalence: a core factory is required")
	}

	// newConditions builds one substrate's fault stack: the configured
	// factory, or the paper's uniform loss from the plain rate. Called once
	// per substrate — stateful conditions (burst models, delay queues) must
	// not be shared between runs.
	newConditions := cfg.NewConditions
	if newConditions == nil {
		newConditions = func() (*faults.Conditions, error) { return faults.FromRate(cfg.Loss) }
	}

	// The three backends differ only in construction: engine kind and seed
	// stream (each substrate gets a distinct derived stream so none replays
	// another's randomness). The drive loop below is identical for all.
	backends := []struct {
		kind runtime.EngineKind
		seed int64
	}{
		{runtime.EngineSeq, cfg.Seed},
		{runtime.EngineCluster, rng.DeriveSeed(cfg.Seed, 1)},
		{runtime.EngineSharded, rng.DeriveSeed(cfg.Seed, 2)},
	}
	summaries := make([]*Substrate, len(backends))
	for i, b := range backends {
		cond, err := newConditions()
		if err != nil {
			return nil, err
		}
		sub, err := runtime.New(runtime.Config{
			Engine:     b.kind,
			N:          cfg.N,
			NewCore:    cfg.NewCore,
			InitDegree: cfg.InitDegree,
			Conditions: cond,
			Workers:    cfg.ShardedWorkers,
			Seed:       b.seed,
		})
		if err != nil {
			return nil, fmt.Errorf("equivalence: %s: %w", b.kind, err)
		}
		for r := 0; r < cfg.Rounds; r++ {
			sub.TickRound()
		}
		// Flush the delay queue (no further protocol steps) so the traffic
		// identity Sends = Losses + Deliveries + DeadLetters holds on the
		// final counters.
		sub.DrainDelayed()
		err = sub.CheckInvariants()
		if err == nil {
			summaries[i], err = summarize(cfg, sub.Views(), sub.Traffic(), sub.Counters())
		}
		sub.Close()
		if err != nil {
			return nil, fmt.Errorf("equivalence: %s substrate: %w", b.kind, err)
		}
	}
	engSub, clSub, shSub := summaries[0], summaries[1], summaries[2]

	return &Result{
		Engine:           *engSub,
		Cluster:          *clSub,
		Sharded:          *shSub,
		KS:               stats.KSDistance(engSub.InDegreePMF, clSub.InDegreePMF),
		KSEngineSharded:  stats.KSDistance(engSub.InDegreePMF, shSub.InDegreePMF),
		KSClusterSharded: stats.KSDistance(clSub.InDegreePMF, shSub.InDegreePMF),
	}, nil
}

// summarize validates every view against a fresh probe core and computes the
// overlay statistics.
func summarize(cfg Config, views []*view.View, tr metrics.Traffic, counters runtime.NodeCounters) (*Substrate, error) {
	probe, err := cfg.NewCore()
	if err != nil {
		return nil, err
	}
	s := probe.ViewSize()
	for u, v := range views {
		if v == nil {
			continue
		}
		if err := probe.CheckView(v); err != nil {
			return nil, fmt.Errorf("node %d: %w", u, err)
		}
		if v.Outdegree() > s {
			return nil, fmt.Errorf("node %d: outdegree %d exceeds view size %d", u, v.Outdegree(), s)
		}
	}
	g := graph.FromViews(views)
	deg := metrics.Degrees(g, nil)
	pmf := make([]float64, deg.MaxIn+1)
	for u := 0; u < g.N(); u++ {
		pmf[g.Indegree(peer.ID(u))]++
	}
	for k := range pmf {
		pmf[k] /= float64(g.N())
	}
	return &Substrate{
		Views:       views,
		Traffic:     tr,
		Counters:    counters,
		InDegreePMF: pmf,
		MeanOut:     deg.MeanOut,
		MeanIn:      deg.MeanIn,
		SelfEdges:   g.SelfEdges(),
	}, nil
}
