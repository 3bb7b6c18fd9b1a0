package churn

import (
	"fmt"

	"sendforget/internal/graph"
	"sendforget/internal/peer"
	"sendforget/internal/protocol"
	"sendforget/internal/rng"
	"sendforget/internal/runtime"
	"sendforget/internal/view"
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

// RunWorkload drives sub for the given number of rounds while
// injecting churn events, checkpointing every sampleEvery rounds.
func RunWorkload(sub runtime.Substrate, cfg WorkloadConfig, rounds, sampleEvery int, r *rng.RNG) (*WorkloadStats, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if rounds < 0 || sampleEvery <= 0 {
		return nil, fmt.Errorf("churn: invalid rounds=%d sampleEvery=%d", rounds, sampleEvery)
	}
	first := sub.Snapshot()
	n := first.N()
	live := make(map[peer.ID]bool, n)
	var liveList []peer.ID
	sub.EachNode(func(u peer.ID, _ *view.View, _ protocol.StepCore) {
		live[u] = true
		liveList = append(liveList, u)
	})
	stats := &WorkloadStats{}
	refresh := func() {
		liveList = liveList[:0]
		for id := range live {
			liveList = append(liveList, id)
		}
		peer.Sort(liveList)
	}
	sample := func(round int, g *graph.Graph) {
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
	sample(0, first)
	for round := 1; round <= rounds; round++ {
		if r.Bernoulli(cfg.LeaveProb) && len(liveList) > cfg.MinLive {
			victim := liveList[r.Intn(len(liveList))]
			sub.RemoveNode(victim)
			delete(live, victim)
			refresh()
			stats.Leaves++
		}
		if r.Bernoulli(cfg.JoinProb) && len(liveList) < n {
			if joiner, ok := joinOne(sub, n, live, liveList, r); ok {
				live[joiner] = true
				stats.Joins++
				refresh()
			} else {
				stats.FailedJoins++
			}
		}
		sub.TickRound()
		if round%sampleEvery == 0 {
			sample(round, sub.Snapshot())
		}
	}
	return stats, nil
}

// joinOne revives a departed id, seeding it from a live node's view (stale
// entries and all), padded with random live ids when the view is short.
func joinOne(sub runtime.Substrate, n int, live map[peer.ID]bool, liveList []peer.ID, r *rng.RNG) (peer.ID, bool) {
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
	sub.EachNode(func(u peer.ID, lv *view.View, _ protocol.StepCore) {
		if u == donor {
			seeds = lv.IDs()
		}
	})
	seeds = append(seeds, donor)
	// Pad with random live ids if the donor view was too short.
	for len(seeds) < 4 {
		seeds = append(seeds, liveList[r.Intn(len(liveList))])
	}
	if err := sub.AddNode(joiner, seeds, false); err != nil {
		return 0, false
	}
	return joiner, true
}
