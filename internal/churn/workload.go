package churn

import (
	"fmt"

	"sendforget/internal/engine"
	"sendforget/internal/peer"
	"sendforget/internal/rng"
)

// WorkloadConfig parameterizes a sustained churn process — an extension
// beyond the paper, whose properties are stated for churn that eventually
// ceases. Each round, one join fires with probability JoinProb and one
// leave with probability LeaveProb (independent coin flips).
type WorkloadConfig struct {
	// JoinProb and LeaveProb are per-round event probabilities in [0, 1].
	JoinProb, LeaveProb float64
	// MinLive floors the live population: leaves are suppressed below it.
	MinLive int
	// MaxSeeds bounds how many ids a joiner copies from a live node's view
	// (0 = as many as the view offers). Per Section 5, a joiner copies
	// another node's view — which may include stale ids.
	MaxSeeds int
}

func (c WorkloadConfig) validate() error {
	if c.JoinProb < 0 || c.JoinProb > 1 || c.LeaveProb < 0 || c.LeaveProb > 1 {
		return fmt.Errorf("churn: event probabilities must be in [0,1]")
	}
	if c.MinLive < 2 {
		return fmt.Errorf("churn: MinLive must be at least 2, got %d", c.MinLive)
	}
	return nil
}

// WorkloadSample is one checkpoint of a churn run.
type WorkloadSample struct {
	Round          int
	Live           int
	LiveComponents int     // weak components among live nodes only
	MeanOutLive    float64 // mean outdegree of live nodes
	StaleFraction  float64 // fraction of live entries pointing at departed ids
}

// WorkloadStats summarizes a churn run.
type WorkloadStats struct {
	Joins, Leaves, FailedJoins int
	Samples                    []WorkloadSample
}

// RunWorkload drives the engine for the given number of rounds while
// injecting churn events, checkpointing every sampleEvery rounds.
func RunWorkload(e *engine.Engine, cfg WorkloadConfig, rounds, sampleEvery int, r *rng.RNG) (*WorkloadStats, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if rounds < 0 || sampleEvery <= 0 {
		return nil, fmt.Errorf("churn: invalid rounds=%d sampleEvery=%d", rounds, sampleEvery)
	}
	n := e.N()
	live := make(map[peer.ID]bool, n)
	var liveList []peer.ID
	for u := 0; u < n; u++ {
		id := peer.ID(u)
		if e.View(id) != nil {
			live[id] = true
			liveList = append(liveList, id)
		}
	}
	stats := &WorkloadStats{}
	refresh := func() {
		liveList = liveList[:0]
		for id := range live {
			liveList = append(liveList, id)
		}
		peer.Sort(liveList)
	}
	sample := func(round int) {
		g := e.Snapshot()
		deg := 0
		for _, u := range liveList {
			deg += g.Outdegree(u)
		}
		meanOut := 0.0
		staleFrac := 0.0
		if len(liveList) > 0 && deg > 0 {
			meanOut = float64(deg) / float64(len(liveList))
			staleFrac = float64(g.StaleEdges(liveList)) / float64(deg)
		}
		stats.Samples = append(stats.Samples, WorkloadSample{
			Round:          round,
			Live:           len(liveList),
			LiveComponents: g.InducedComponents(liveList),
			MeanOutLive:    meanOut,
			StaleFraction:  staleFrac,
		})
	}
	sample(0)
	for round := 1; round <= rounds; round++ {
		if r.Bernoulli(cfg.LeaveProb) && len(liveList) > cfg.MinLive {
			victim := liveList[r.Intn(len(liveList))]
			e.Leave(victim)
			delete(live, victim)
			refresh()
			stats.Leaves++
		}
		if r.Bernoulli(cfg.JoinProb) && len(liveList) < n {
			if joiner, ok := joinOne(e, live, liveList, cfg, r); ok {
				live[joiner] = true
				stats.Joins++
				refresh()
			} else {
				stats.FailedJoins++
			}
		}
		e.Round()
		if round%sampleEvery == 0 {
			sample(round)
		}
	}
	return stats, nil
}

// joinOne revives a departed id, seeding it from a live node's view (stale
// entries and all), padded with random live ids when the view is short.
func joinOne(e *engine.Engine, live map[peer.ID]bool, liveList []peer.ID, cfg WorkloadConfig, r *rng.RNG) (peer.ID, bool) {
	n := e.N()
	var joiner peer.ID = -1
	// Pick a departed id uniformly (bounded scan from a random offset).
	off := r.Intn(n)
	for k := 0; k < n; k++ {
		id := peer.ID((off + k) % n)
		if !live[id] {
			joiner = id
			break
		}
	}
	if joiner < 0 {
		return 0, false
	}
	donor := liveList[r.Intn(len(liveList))]
	var seeds []peer.ID
	if v := e.View(donor); v != nil {
		seeds = v.IDs()
	}
	seeds = append(seeds, donor)
	if cfg.MaxSeeds > 0 && len(seeds) > cfg.MaxSeeds {
		seeds = seeds[:cfg.MaxSeeds]
	}
	// Pad with random live ids if the donor view was too short.
	for len(seeds) < 4 {
		seeds = append(seeds, liveList[r.Intn(len(liveList))])
	}
	if err := e.Join(joiner, seeds); err != nil {
		return 0, false
	}
	return joiner, true
}
