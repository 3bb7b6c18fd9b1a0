package experiments

import (
	"fmt"

	"sendforget/internal/engine"
	"sendforget/internal/loss"
	"sendforget/internal/metrics"
	"sendforget/internal/peer"
	"sendforget/internal/protocol"
	"sendforget/internal/protocol/sendforget"
	"sendforget/internal/protocol/sfopt"
	"sendforget/internal/rng"
)

// AblationOptParams configures the Section 5 optimizations ablation.
type AblationOptParams struct {
	N, S, DL int
	Loss     float64
	Rounds   int
	Seed     int64
}

func (p *AblationOptParams) setDefaults() {
	if p.N == 0 {
		p.N = 400
	}
	if p.S == 0 {
		p.S = 16
	}
	if p.DL == 0 {
		p.DL = 6
	}
	if p.Loss == 0 {
		p.Loss = 0.05
	}
	if p.Rounds == 0 {
		p.Rounds = 400
	}
	if p.Seed == 0 {
		p.Seed = 53
	}
}

// sfoptCores returns the core factory of one optimization variant.
func sfoptCores(opts sfopt.Options) protocol.CoreFactory {
	return func() (protocol.StepCore, error) { return sfopt.NewCore(opts) }
}

// AblationOpt measures what each of the paper's Section 5 optimizations
// (undeletion, replace-when-full, larger batches) buys and costs relative
// to the analyzed baseline, under identical loss.
func AblationOpt(p AblationOptParams) (*Report, error) {
	p.setDefaults()
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
		e, err := engine.New(sfoptCores(v.opts), p.N, sendforget.DefaultInitDegree(p.S, p.DL, p.N),
			loss.MustUniform(p.Loss), rng.New(rng.DeriveSeed(p.Seed, int64(i))))
		if err != nil {
			return nil, err
		}
		e.Run(p.Rounds)
		if err := e.CheckInvariants(); err != nil {
			return nil, fmt.Errorf("%s: %w", v.name, err)
		}
		g := e.Snapshot()
		deg := metrics.Degrees(g, nil)
		c := e.Tally()
		var vc sfopt.Counters
		for u := 0; u < p.N; u++ {
			nc := e.Core(peer.ID(u)).(*sfopt.Core).Counters()
			vc.Undeletions += nc.Undeletions
			vc.Replaced += nc.Replaced
		}
		// Every received id is stored, replaces an entry, or is deleted.
		k := max(v.opts.BatchK, 2)
		perSend := 0.0
		if c.Sends > 0 {
			perSend = float64(k*c.Receives-c.DeletedIDs) / float64(c.Sends)
		}
		return []string{v.name,
			f2(float64(g.NumEdges()) / float64(p.N)),
			f2(deg.MeanOut), f2(deg.VarIn), d(g.ComponentCount()),
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

func (p *AblationNonuniformParams) setDefaults() {
	if p.N == 0 {
		p.N = 400
	}
	if p.S == 0 {
		p.S = 16
	}
	if p.DL == 0 {
		p.DL = 6
	}
	if p.LossyRate == 0 {
		p.LossyRate = 0.2
	}
	if p.Rounds == 0 {
		p.Rounds = 400
	}
	if p.Seed == 0 {
		p.Seed = 54
	}
}

// AblationNonuniform probes the paper's uniform-loss assumption (Section 4:
// "While nonuniform loss occurs in practice [33], it is more difficult to
// model and analyze"): half the nodes suffer heavy inbound loss, half none,
// and the per-group degree statistics show how far uniformity degrades.
func AblationNonuniform(p AblationNonuniformParams) (*Report, error) {
	p.setDefaults()
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
	e, err := engine.New(sfoptCores(sfopt.Options{S: p.S, DL: p.DL}), p.N, sendforget.DefaultInitDegree(p.S, p.DL, p.N), lm, rng.New(p.Seed))
	if err != nil {
		return nil, err
	}
	e.Run(p.Rounds)
	g := e.Snapshot()
	lossyDeg := metrics.Degrees(g, lossyGroup)
	cleanDeg := metrics.Degrees(g, cleanGroup)

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
		lossyIDs += g.IDInstances(u)
	}
	for _, u := range cleanGroup {
		cleanIDs += g.IDInstances(u)
	}
	t2 := Table{Columns: []string{"quantity", "value"}}
	t2.AddRow("components", d(g.ComponentCount()))
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
