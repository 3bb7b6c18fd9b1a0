package experiments

import (
	"fmt"

	"sendforget/internal/faults"
	"sendforget/internal/graph"
	"sendforget/internal/loss"
	"sendforget/internal/peer"
	"sendforget/internal/protocol"
	"sendforget/internal/protocol/sendforget"
	"sendforget/internal/runtime"
)

// LossStressParams configures the fault-injection stress run.
type LossStressParams struct {
	// N nodes, view size S, don't-forget floor DL, bootstrap degree
	// InitDegree.
	N, S, DL, InitDegree int
	// Rounds is the total round count; LeaveAt is the round at which the
	// tracked leaver departs; FaultAt..HealAt brackets the partition (and
	// the burst scenarios' observation window).
	Rounds, LeaveAt, FaultAt, HealAt int
	// Rate is the uniform baseline loss rate; the burst scenarios match its
	// stationary rate with BurstLen-long bursts.
	Rate     float64
	BurstLen float64
	Seed     int64
}

// lossStressDefaults returns 240 rounds of 120 nodes at s = 16, dL = 6: a
// leaver at round 60, the fault window [80, 160), 5% loss in bursts of 8.
func lossStressDefaults() LossStressParams {
	return LossStressParams{
		N: 120, S: 16, DL: 6, InitDegree: 8,
		Rounds: 240, LeaveAt: 60, FaultAt: 80, HealAt: 160,
		Rate: 0.05, BurstLen: 8, Seed: 65,
	}
}

// lossScenario is one network condition under which the S&F cluster is
// re-run from scratch.
type lossScenario struct {
	name string
	// newConditions builds a dedicated fault stack (stateful models must
	// not be shared across scenarios).
	newConditions func(p LossStressParams) (*faults.Conditions, error)
	// partition when set splits the cluster in two halves during
	// [FaultAt, HealAt).
	partition bool
}

func lossScenarios() []lossScenario {
	return []lossScenario{
		{
			name: "uniform",
			newConditions: func(p LossStressParams) (*faults.Conditions, error) {
				return faults.FromRate(p.Rate)
			},
		},
		{
			name: "burst-matched",
			newConditions: func(p LossStressParams) (*faults.Conditions, error) {
				gem, err := loss.BurstyWithRate(p.Rate, p.BurstLen)
				if err != nil {
					return nil, err
				}
				return faults.New(gem)
			},
		},
		{
			name: "burst-heavy",
			newConditions: func(p LossStressParams) (*faults.Conditions, error) {
				gem, err := loss.BurstyWithRate(4*p.Rate, p.BurstLen)
				if err != nil {
					return nil, err
				}
				return faults.New(gem)
			},
		},
		{
			name: "partition-heal",
			newConditions: func(p LossStressParams) (*faults.Conditions, error) {
				return faults.Lossless(), nil
			},
			partition: true,
		},
		{
			name: "delay-jitter",
			newConditions: func(p LossStressParams) (*faults.Conditions, error) {
				cond := faults.Lossless()
				if err := cond.SetDelay(faults.Delay{Fixed: 1, Jitter: 2}); err != nil {
					return nil, err
				}
				return cond, nil
			},
		},
	}
}

// lossStressPoint is one scenario's measured outcome.
type lossStressPoint struct {
	name                 string
	sends, losses        int
	partitionDrops       int
	delayed, deadLetters int
	lossRate             float64
	compMid, compEnd     int
	meanOut, meanIn      float64
	leaverMid, leaverEnd int
}

// LossStress stresses the paper's uniform-i.i.d.-loss assumption (Section 4)
// on any substrate (the goroutine-per-node cluster by default): the same S&F
// overlay is re-run under uniform loss, Gilbert-Elliott burst loss at the
// matched stationary rate, a heavier burst regime, a healed two-way
// partition, and jittered delivery delay.
// Each run removes one node mid-way and tracks the fig6.4-style decay of its
// id instances alongside degree/connectivity and the extended traffic
// counters.
func LossStress(p LossStressParams, kind runtime.EngineKind) (*Report, error) {
	if !(p.LeaveAt < p.FaultAt && p.FaultAt < p.HealAt && p.HealAt < p.Rounds) {
		return nil, fmt.Errorf("experiments: need LeaveAt < FaultAt < HealAt < Rounds, got %d/%d/%d/%d",
			p.LeaveAt, p.FaultAt, p.HealAt, p.Rounds)
	}
	scenarios := lossScenarios()
	points, err := Sweep(len(scenarios), sweepWorkers, func(i int) (lossStressPoint, error) {
		return runLossScenario(p, scenarios[i], kind)
	})
	if err != nil {
		return nil, err
	}

	r := &Report{
		ID:    "loss-stress",
		Title: "Fault-injection stress: S&F degree/connectivity beyond uniform i.i.d. loss",
		Params: fmt.Sprintf("n=%d s=%d dL=%d init=%d rounds=%d leaveAt=%d fault=[%d,%d) rate=%g burstLen=%g",
			p.N, p.S, p.DL, p.InitDegree, p.Rounds, p.LeaveAt, p.FaultAt, p.HealAt, p.Rate, p.BurstLen),
	}
	traffic := Table{
		Title:   "Traffic accounting (Sends = Losses + Deliveries + DeadLetters after drain)",
		Columns: []string{"scenario", "sends", "losses", "loss rate", "partition drops", "delayed", "dead letters"},
	}
	overlay := Table{
		Title:   fmt.Sprintf("Overlay health (mid = round %d, end = round %d after drain)", p.HealAt, p.Rounds),
		Columns: []string{"scenario", "components mid", "components end", "mean out", "mean in", "leaver ids mid", "leaver ids end"},
	}
	for _, pt := range points {
		traffic.AddRow(pt.name, d(pt.sends), d(pt.losses), f4(pt.lossRate), d(pt.partitionDrops), d(pt.delayed), d(pt.deadLetters))
		overlay.AddRow(pt.name, d(pt.compMid), d(pt.compEnd), f2(pt.meanOut), f2(pt.meanIn), d(pt.leaverMid), d(pt.leaverEnd))
	}
	r.Tables = append(r.Tables, traffic, overlay)
	r.Notes = append(r.Notes,
		"burst loss at the matched stationary rate behaves like uniform loss in the aggregate — M1-M5 degrade with the rate, not the correlation structure",
		"the partition never fragments either half internally; whether the halves reconnect after Heal depends on how many cross-partition ids survive the outage (S&F has no rejoin mechanism)",
		"delay with jitter reorders messages but loses nothing: the overlay matches the lossless baseline once the delay queue drains",
		"the leaver's id decays toward zero in every scenario (Lemma 6.10); loss only accelerates it",
	)
	return r, nil
}

// runLossScenario executes one deterministic run under the given conditions
// on the given backend, the cluster when kind is empty. The substrate is
// ticked manually; no wall-clock timers touch protocol state.
func runLossScenario(p LossStressParams, sc lossScenario, kind runtime.EngineKind) (lossStressPoint, error) {
	cond, err := sc.newConditions(p)
	if err != nil {
		return lossStressPoint{}, err
	}
	cl, err := runtime.New(runtime.Config{
		Engine: kind,
		N:      p.N,
		NewCore: func() (protocol.StepCore, error) {
			return sendforget.NewCore(p.S, p.DL)
		},
		InitDegree: p.InitDegree,
		Conditions: cond,
		Seed:       p.Seed,
	})
	if err != nil {
		return lossStressPoint{}, err
	}
	defer cl.Close()
	leaver := peer.ID(p.N - 1)
	var halves [2][]peer.ID
	live := make([]peer.ID, 0, p.N-1)
	for u := 0; u < p.N; u++ {
		halves[u%2] = append(halves[u%2], peer.ID(u))
		if peer.ID(u) != leaver {
			live = append(live, peer.ID(u))
		}
	}
	pt := lossStressPoint{name: sc.name}
	var mid *graph.Graph
	for round := 0; round < p.Rounds; round++ {
		if round == p.LeaveAt {
			cl.RemoveNode(leaver)
		}
		if sc.partition && round == p.FaultAt {
			cl.Conditions().Partition(halves[0], halves[1])
		}
		if round == p.HealAt {
			// Snapshot before healing: this is the overlay under the fault.
			mid = cl.Snapshot()
			if sc.partition {
				cl.Conditions().Heal()
			}
		}
		cl.TickRound()
	}
	cl.DrainDelayed()
	if err := cl.CheckInvariants(); err != nil {
		return lossStressPoint{}, fmt.Errorf("%s: %w", sc.name, err)
	}
	end := cl.Snapshot()
	tr := cl.Traffic()
	if tr.Sends != tr.Losses+tr.Deliveries+tr.DeadLetters {
		return lossStressPoint{}, fmt.Errorf("%s: traffic identity violated: %+v", sc.name, tr)
	}
	pt.sends = tr.Sends
	pt.losses = tr.Losses
	pt.partitionDrops = tr.PartitionDrops
	pt.delayed = tr.Delayed
	pt.deadLetters = tr.DeadLetters
	if tr.Sends > 0 {
		pt.lossRate = float64(tr.Losses) / float64(tr.Sends)
	}
	pt.compMid = mid.InducedComponents(live)
	pt.compEnd = end.InducedComponents(live)
	pt.leaverMid = mid.IDInstances(leaver)
	pt.leaverEnd = end.IDInstances(leaver)
	for _, u := range live {
		pt.meanOut += float64(end.Outdegree(u))
		pt.meanIn += float64(end.Indegree(u))
	}
	pt.meanOut /= float64(len(live))
	pt.meanIn /= float64(len(live))
	return pt, nil
}
