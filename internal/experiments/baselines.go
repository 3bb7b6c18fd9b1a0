package experiments

import (
	"fmt"

	"sendforget/internal/faults"
	"sendforget/internal/graph"
	"sendforget/internal/loss"
	"sendforget/internal/protocol"
	"sendforget/internal/protocol/flipper"
	"sendforget/internal/protocol/pushpull"
	"sendforget/internal/protocol/sendforget"
	"sendforget/internal/protocol/shuffle"
	"sendforget/internal/rng"
	"sendforget/internal/runtime"
)

// BaselinesParams configures the Section 3.1 baseline comparison.
type BaselinesParams struct {
	N, S       int
	DL         int // S&F duplication threshold
	Loss       float64
	Rounds     int
	Checkpoint int
	Seed       int64
}

// baselinesDefaults returns 400 rounds of 500 nodes at s = 20, dL = 8 and
// 5% loss, a row every 50 rounds.
func baselinesDefaults() BaselinesParams {
	return BaselinesParams{N: 500, S: 20, DL: 8, Loss: 0.05, Rounds: 400, Checkpoint: 50, Seed: 31}
}

// Baselines reproduces the Section 3.1 taxonomy claims head-to-head under
// identical loss: delete-on-send shuffle gradually loses ids; keep-on-send
// push-pull is loss-immune but spatially dependent; S&F holds its edge
// population with bounded dependence.
func Baselines(p BaselinesParams, kind runtime.EngineKind) (*Report, error) {
	if p.Checkpoint <= 0 {
		return nil, fmt.Errorf("base1: checkpoint %d, want > 0", p.Checkpoint)
	}
	r := &Report{
		ID:     "base1",
		Title:  "S&F vs shuffle (delete-on-send) vs push-pull (keep-on-send) under loss",
		Params: fmt.Sprintf("n=%d s=%d dL(S&F)=%d l=%g rounds=%d", p.N, p.S, p.DL, p.Loss, p.Rounds),
	}
	initDeg := p.S / 2
	names := []string{"send&forget", "shuffle", "flipper", "push-pull"}
	cores := []protocol.CoreFactory{
		sfCores(p.S, p.DL, false),
		func() (protocol.StepCore, error) { return shuffle.NewCore(p.S) },
		func() (protocol.StepCore, error) { return flipper.NewCore(p.S) },
		func() (protocol.StepCore, error) { return pushpull.NewCore(p.S) },
	}

	edges := Table{Title: "Edges per node over time", Columns: []string{"round"}}
	for _, n := range names {
		edges.Columns = append(edges.Columns, n)
	}
	finals := Table{
		Title:   "Final state",
		Columns: []string{"protocol", "edges/node", "components", "self+dup fraction", "indegree var"},
	}

	checkpoints := p.Rounds/p.Checkpoint + 1
	series := make([][]float64, len(names))
	pass := graph.NewPass(p.N)
	for i, name := range names {
		sub, err := simulate(kind, runtime.Config{N: p.N, NewCore: cores[i], InitDegree: initDeg, Loss: p.Loss, Seed: rng.DeriveSeed(p.Seed, int64(i))}, 0)
		if err != nil {
			return nil, err
		}
		series[i] = make([]float64, 0, checkpoints)
		for c := 0; c < checkpoints; c++ {
			if c > 0 {
				runtime.Run(sub, p.Checkpoint)
			}
			series[i] = append(series[i], float64(pass.Universe(sub.EachNode).Edges)/float64(p.N))
		}
		q := pass.Universe(sub.EachNode)
		sub.Close()
		finals.AddRow(name,
			f2(float64(q.Edges)/float64(p.N)),
			d(q.Components),
			f4(q.DependentFraction()),
			f2(q.VarIn),
		)
	}
	for c := 0; c < checkpoints; c++ {
		row := []string{d(c * p.Checkpoint)}
		for i := range names {
			row = append(row, f2(series[i][c]))
		}
		edges.AddRow(row...)
	}
	r.Tables = append(r.Tables, edges, finals)
	r.Notes = append(r.Notes,
		"shuffle's and flipper's id populations decay toward collapse (Section 3.1: delete-on-send protocols 'are unable to withstand message loss')",
		"push-pull never loses ids but accumulates visible dependence (duplicates/self-edges)",
		"S&F stabilizes: duplications replace exactly the ids that loss destroys (Lemma 6.6)",
	)
	return r, nil
}

// AblationBurstParams configures the burst-loss ablation.
type AblationBurstParams struct {
	N, S, DL  int
	Rate      float64
	BurstLens []float64
	Rounds    int
	Seed      int64
}

// ablationBurstDefaults returns the paper's s = 40, dL = 18 on 400 nodes at
// 5% loss, uniform against bursts of 10 and 50, for 300 rounds.
func ablationBurstDefaults() AblationBurstParams {
	return AblationBurstParams{N: 400, S: 40, DL: 18, Rate: 0.05, BurstLens: []float64{1, 10, 50}, Rounds: 300, Seed: 11}
}

// AblationBurst compares S&F under uniform i.i.d. loss (the paper's model)
// against Gilbert-Elliott bursty loss at the same average rate — probing how
// far the paper's i.i.d. assumption carries. Alpha comes from the per-entry
// dependence tags in each node's core.
func AblationBurst(p AblationBurstParams, kind runtime.EngineKind) (*Report, error) {
	r := &Report{
		ID:     "abl1",
		Title:  "Uniform vs bursty loss at equal average rate (extension)",
		Params: fmt.Sprintf("n=%d s=%d dL=%d rate=%g rounds=%d", p.N, p.S, p.DL, p.Rate, p.Rounds),
	}
	t := Table{Columns: []string{"loss model", "measured loss", "edges/node", "mean out", "indegree var", "components", "alpha"}}
	// The uniform reference plus one bursty variant per burst length, each a
	// self-contained run with the seed the historical sequential loop used.
	type burstVariant struct {
		name  string
		model func() (loss.Model, error)
		seed  int64
	}
	variants := []burstVariant{{
		name:  "uniform",
		model: func() (loss.Model, error) { return loss.MustUniform(p.Rate), nil },
		seed:  p.Seed,
	}}
	for i, bl := range p.BurstLens {
		if bl <= 1 {
			continue
		}
		bl := bl
		variants = append(variants, burstVariant{
			name:  fmt.Sprintf("bursty(len=%g)", bl),
			model: func() (loss.Model, error) { return loss.BurstyWithRate(p.Rate, bl) },
			seed:  rng.DeriveSeed(p.Seed, 1, int64(i)),
		})
	}
	rows, err := Sweep(len(variants), sweepWorkers, func(k int) ([]string, error) {
		v := variants[k]
		lm, err := v.model()
		if err != nil {
			return nil, err
		}
		cond, err := faults.New(lm)
		if err != nil {
			return nil, err
		}
		sub, err := simulate(kind, runtime.Config{N: p.N, NewCore: sfCores(p.S, p.DL, true),
			InitDegree: sendforget.DefaultInitDegree(p.S, p.DL, p.N), Conditions: cond, Seed: v.seed}, p.Rounds)
		if err != nil {
			return nil, err
		}
		defer sub.Close()
		q := graph.NewPass(p.N).Universe(sub.EachNode)
		var st sendforget.DependenceStats
		sub.EachNode(st.Add)
		return []string{v.name,
			f4(sub.Traffic().LossRate()),
			f2(float64(q.Edges) / float64(p.N)),
			f2(q.MeanOut),
			f2(q.VarIn),
			d(q.Components),
			f4(st.Alpha()),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		t.AddRow(row...)
	}
	r.Tables = append(r.Tables, t)
	r.Notes = append(r.Notes,
		"at equal average rates, S&F's steady state is nearly insensitive to burstiness: duplication reacts to the average id-destruction rate, not its correlation structure",
	)
	return r, nil
}

// AblationDLParams configures the duplication-threshold sweep.
type AblationDLParams struct {
	N, S   int
	Loss   float64
	DLs    []int
	Rounds int
	Seed   int64
}

// ablationDLDefaults returns dL from 0 to 34 at s = 40 on 400 nodes at 5%
// loss, for 400 rounds.
func ablationDLDefaults() AblationDLParams {
	return AblationDLParams{N: 400, S: 40, Loss: 0.05, DLs: []int{0, 6, 12, 18, 24, 30, 34}, Rounds: 400, Seed: 12}
}

// AblationDL sweeps the duplication threshold dL at fixed loss, exposing
// the design tradeoff of Section 5: dL = 0 lets the id population decay
// (like shuffle), large dL pins outdegrees and increases dependence. Alpha
// comes from the per-entry dependence tags in each node's core.
func AblationDL(p AblationDLParams, kind runtime.EngineKind) (*Report, error) {
	r := &Report{
		ID:     "abl2",
		Title:  "Duplication threshold sweep (design-choice ablation)",
		Params: fmt.Sprintf("n=%d s=%d l=%g rounds=%d", p.N, p.S, p.Loss, p.Rounds),
	}
	t := Table{Columns: []string{"dL", "edges/node", "mean out", "mean in", "alpha", "components", "dup prob"}}
	// Filter first but keep the original index of each surviving point: its
	// seed derives from (p.Seed, index), and preserving the index keeps the
	// report identical to the sequential loop.
	type dlPoint struct{ i, dl int }
	var pts []dlPoint
	for i, dl := range p.DLs {
		if dl <= p.S-6 {
			pts = append(pts, dlPoint{i: i, dl: dl})
		}
	}
	rows, err := Sweep(len(pts), sweepWorkers, func(k int) ([]string, error) {
		i, dl := pts[k].i, pts[k].dl
		initDeg := p.S / 2
		if initDeg < dl {
			initDeg = dl
		}
		sub, err := newSF(kind, p.N, p.S, dl, initDeg, p.Loss, p.Rounds, rng.DeriveSeed(p.Seed, int64(i)), true)
		if err != nil {
			return nil, err
		}
		defer sub.Close()
		q := graph.NewPass(p.N).Universe(sub.EachNode)
		c := sub.Counters()
		dup := 0.0
		if c.Sends > 0 {
			dup = float64(c.Duplications) / float64(c.Sends)
		}
		var st sendforget.DependenceStats
		sub.EachNode(st.Add)
		return []string{d(dl),
			f2(float64(q.Edges) / float64(p.N)),
			f2(q.MeanOut), f2(q.MeanIn),
			f4(st.Alpha()),
			d(q.Components),
			f4(dup),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		t.AddRow(row...)
	}
	r.Tables = append(r.Tables, t)
	r.Notes = append(r.Notes,
		"dL=0 disables duplication: under loss the edge population decays and the overlay fragments (Section 5: 'node outdegrees would gradually decrease, until eventually all nodes become isolated')",
		"moderate dL stabilizes the population at slightly reduced independence; dL near s forces frequent duplication and lowers alpha",
	)
	return r, nil
}
