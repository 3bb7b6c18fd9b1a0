package experiments

import (
	"fmt"

	"sendforget/internal/faults"
	"sendforget/internal/graph"
	"sendforget/internal/loss"
	"sendforget/internal/peer"
	"sendforget/internal/protocol"
	"sendforget/internal/protocol/sendforget"
	"sendforget/internal/protocol/sfopt"
	"sendforget/internal/rng"
	"sendforget/internal/runtime"
	"sendforget/internal/view"
)

// AblationOptParams configures the Section 5 optimizations ablation.
type AblationOptParams struct {
	N, S, DL int
	Loss     float64
	Rounds   int
	Seed     int64
}

// ablationOptDefaults returns 400 rounds of 400 nodes at s = 16, dL = 6 and
// 5% loss.
func ablationOptDefaults() AblationOptParams {
	return AblationOptParams{N: 400, S: 16, DL: 6, Loss: 0.05, Rounds: 400, Seed: 53}
}

// sfoptCores returns the core factory of one optimization variant.
func sfoptCores(opts sfopt.Options) protocol.CoreFactory {
	return func() (protocol.StepCore, error) { return sfopt.NewCore(opts) }
}

// AblationOpt measures what each of the paper's Section 5 optimizations
// (undeletion, replace-when-full, larger batches) buys and costs relative
// to the analyzed baseline, under identical loss. The undeletion and
// replacement counts live in each node's core.
func AblationOpt(p AblationOptParams, kind runtime.EngineKind) (*Report, error) {
	r := &Report{
		ID:     "abl3",
		Title:  "Section 5 optimizations: undeletion, replace-when-full, batching",
		Params: fmt.Sprintf("n=%d s=%d dL=%d l=%g rounds=%d", p.N, p.S, p.DL, p.Loss, p.Rounds),
	}
	variants := []struct {
		name string
		opts sfopt.Options
	}{
		{"baseline", sfopt.Options{S: p.S, DL: p.DL}},
		{"undelete", sfopt.Options{S: p.S, DL: p.DL, Undelete: true}},
		{"replace-when-full", sfopt.Options{S: p.S, DL: p.DL, ReplaceWhenFull: true}},
		{"batch-4", sfopt.Options{S: p.S, DL: p.DL, BatchK: 4}},
		{"all-three", sfopt.Options{S: p.S, DL: p.DL, Undelete: true, ReplaceWhenFull: true, BatchK: 4}},
	}
	t := Table{Columns: []string{
		"variant", "edges/node", "mean out", "indeg var", "components",
		"ids moved/send", "dup", "undel", "del", "repl",
	}}
	rows, err := Sweep(len(variants), sweepWorkers, func(i int) ([]string, error) {
		v := variants[i]
		sub, err := simulate(kind, runtime.Config{N: p.N, NewCore: sfoptCores(v.opts),
			InitDegree: sendforget.DefaultInitDegree(p.S, p.DL, p.N), Loss: p.Loss, Seed: rng.DeriveSeed(p.Seed, int64(i))}, p.Rounds)
		if err != nil {
			return nil, err
		}
		defer sub.Close()
		if err := sub.CheckInvariants(); err != nil {
			return nil, fmt.Errorf("%s: %w", v.name, err)
		}
		q := graph.NewPass(p.N).Universe(sub.EachNode)
		c := sub.Counters()
		var vc sfopt.Counters
		sub.EachNode(func(_ peer.ID, _ *view.View, core protocol.StepCore) {
			nc := core.(*sfopt.Core).Counters()
			vc.Undeletions += nc.Undeletions
			vc.Replaced += nc.Replaced
		})
		// Every received id is stored, replaces an entry, or is deleted.
		k := max(v.opts.BatchK, 2)
		perSend := 0.0
		if c.Sends > 0 {
			perSend = float64(k*c.Receives-c.DeletedIDs) / float64(c.Sends)
		}
		return []string{v.name,
			f2(float64(q.Edges) / float64(p.N)),
			f2(q.MeanOut), f2(q.VarIn), d(q.Components),
			f2(perSend),
			d(c.Duplications - vc.Undeletions), d(vc.Undeletions), d(c.DeletedIDs), d(vc.Replaced),
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
		"undeletion replaces duplication-style compensation with graveyard restores, trading correlated copies for slightly stale ids",
		"replace-when-full converts deletions into replacements, keeping views pinned at s like push-pull does",
		"batch-4 moves twice the ids per message: same mixing for half the messages, at the cost of a higher self-loop rate (all 4 selected slots must be occupied)",
	)
	return r, nil
}

// AblationNonuniformParams configures the nonuniform-loss ablation.
type AblationNonuniformParams struct {
	N, S, DL  int
	LossyRate float64 // inbound loss of the afflicted half
	Rounds    int
	Seed      int64
}

// ablationNonuniformDefaults returns 400 rounds of 400 nodes at s = 16,
// dL = 6, half of them losing 20% of their inbound messages.
func ablationNonuniformDefaults() AblationNonuniformParams {
	return AblationNonuniformParams{N: 400, S: 16, DL: 6, LossyRate: 0.2, Rounds: 400, Seed: 54}
}

// AblationNonuniform probes the paper's uniform-loss assumption (Section 4:
// "While nonuniform loss occurs in practice [33], it is more difficult to
// model and analyze"): half the nodes suffer heavy inbound loss, half none,
// and the per-group degree statistics show how far uniformity degrades.
func AblationNonuniform(p AblationNonuniformParams, kind runtime.EngineKind) (*Report, error) {
	rates := make(map[peer.ID]float64, p.N/2)
	var lossyGroup, cleanGroup []peer.ID
	for u := 0; u < p.N; u++ {
		if u%2 == 0 {
			rates[peer.ID(u)] = p.LossyRate
			lossyGroup = append(lossyGroup, peer.ID(u))
		} else {
			cleanGroup = append(cleanGroup, peer.ID(u))
		}
	}
	lm, err := loss.NewPerDest(0, rates)
	if err != nil {
		return nil, err
	}
	cond, err := faults.New(lm)
	if err != nil {
		return nil, err
	}
	sub, err := simulate(kind, runtime.Config{N: p.N, NewCore: sfoptCores(sfopt.Options{S: p.S, DL: p.DL}),
		InitDegree: sendforget.DefaultInitDegree(p.S, p.DL, p.N), Conditions: cond, Seed: p.Seed}, p.Rounds)
	if err != nil {
		return nil, err
	}
	pass := graph.NewPass(p.N)
	q := pass.Universe(sub.EachNode)
	sub.Close()
	lossyDeg, cleanDeg := pass.Group(lossyGroup), pass.Group(cleanGroup)

	r := &Report{
		ID:    "abl4",
		Title: "Nonuniform loss (extension): half the nodes with lossy inbound links",
		Params: fmt.Sprintf("n=%d s=%d dL=%d lossy-inbound=%g rounds=%d",
			p.N, p.S, p.DL, p.LossyRate, p.Rounds),
	}
	t := Table{Columns: []string{"group", "mean out", "mean in", "indeg var"}}
	t.AddRow("lossy inbound", f2(lossyDeg.MeanOut), f2(lossyDeg.MeanIn), f2(lossyDeg.VarIn))
	t.AddRow("clean inbound", f2(cleanDeg.MeanOut), f2(cleanDeg.MeanIn), f2(cleanDeg.VarIn))
	r.Tables = append(r.Tables, t)

	// Representation skew: total instances of lossy-group ids vs clean.
	lossyIDs, cleanIDs := 0, 0
	for _, u := range lossyGroup {
		lossyIDs += pass.Indegree(u)
	}
	for _, u := range cleanGroup {
		cleanIDs += pass.Indegree(u)
	}
	t2 := Table{Columns: []string{"quantity", "value"}}
	t2.AddRow("components", d(q.Components))
	t2.AddRow("lossy-group id instances / node", f2(float64(lossyIDs)/float64(len(lossyGroup))))
	t2.AddRow("clean-group id instances / node", f2(float64(cleanIDs)/float64(len(cleanGroup))))
	skew := 0.0
	if cleanIDs > 0 {
		skew = float64(lossyIDs) / float64(cleanIDs)
	}
	t2.AddRow("representation ratio (lossy/clean)", f4(skew))
	r.Tables = append(r.Tables, t2)
	r.Notes = append(r.Notes,
		"inbound loss starves a node's view refills, lowering its outdegree; its id still spreads through its own sends, so representation skews far less than the loss asymmetry",
		"the overlay stays connected: duplication compensates per-id, not per-link",
	)
	return r, nil
}
