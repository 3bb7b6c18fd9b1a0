package experiments

import (
	"fmt"

	"sendforget/internal/analysis"
	"sendforget/internal/churn"
	"sendforget/internal/degreemc"
	"sendforget/internal/graph"
	"sendforget/internal/peer"
	"sendforget/internal/protocol"
	"sendforget/internal/protocol/sendforget"
	"sendforget/internal/rng"
	"sendforget/internal/runtime"
	"sendforget/internal/view"
)

// sfCores returns the S&F core factory, with per-slot dependence tags when
// trackDeps is set.
func sfCores(s, dl int, trackDeps bool) protocol.CoreFactory {
	if trackDeps {
		return func() (protocol.StepCore, error) { return sendforget.NewTrackedCore(s, dl) }
	}
	return func() (protocol.StepCore, error) { return sendforget.NewCore(s, dl) }
}

// simulate builds cfg, seeded by seed, on backend kind and runs it for
// warmRounds rounds. The empty kind selects seq, the one every simulation
// ran on before -engine reached it, so the default reports stay
// byte-stable. The caller closes it.
func simulate(kind runtime.EngineKind, cfg runtime.Config, seed rng.Seed, warmRounds int) (runtime.Substrate, error) {
	cfg.Seed = int64(seed)
	if cfg.Engine = kind; kind == "" {
		cfg.Engine = runtime.EngineSeq
	}
	sub, err := runtime.New(cfg)
	if err != nil {
		return nil, err
	}
	runtime.Run(sub, warmRounds)
	return sub, nil
}

// newSF builds a warmed-up S&F overlay for the simulation experiments on
// the given backend; initDeg 0 selects the S&F midpoint bootstrap degree.
// The caller closes it.
func newSF(kind runtime.EngineKind, n, s, dl, initDeg int, l float64, warmRounds int, seed rng.Seed, trackDeps bool) (runtime.Substrate, error) {
	if initDeg == 0 {
		initDeg = sendforget.DefaultInitDegree(s, dl, n)
	}
	return simulate(kind, runtime.Config{N: n, NewCore: sfCores(s, dl, trackDeps), InitDegree: initDeg, Loss: l}, seed, warmRounds)
}

// Fig64Params configures the Figure 6.4 reproduction.
type Fig64Params struct {
	N, S, DL   int
	Delta      float64
	LossRates  []float64
	Rounds     int
	Leavers    int
	Checkpoint int
	Seed       int64
}

// fig64Defaults returns the paper's s = 40, dL = 18 and loss rates on 400
// nodes: five leavers per rate, tracked for 500 rounds, a row every 50.
func fig64Defaults() Fig64Params {
	return Fig64Params{
		N: 400, S: 40, DL: 18, Delta: 0.01, LossRates: []float64{0, 0.01, 0.05, 0.1},
		Rounds: 500, Leavers: 5, Checkpoint: 50, Seed: 64,
	}
}

// Fig64 reproduces Figure 6.4: the Lemma 6.10 upper bound on the
// probability that an id instance of a left/failed node remains in the
// system, as a function of rounds since the departure, for several loss
// rates — together with the decay measured in simulation, which must stay
// below the bound.
func Fig64(p Fig64Params, kind runtime.EngineKind) (*Report, error) {
	if p.Checkpoint <= 0 || len(p.LossRates) == 0 {
		return nil, fmt.Errorf("fig6.4: need checkpoint > 0 and a loss rate, got %d and %v", p.Checkpoint, p.LossRates)
	}
	r := &Report{
		ID:     "fig6.4",
		Title:  "Departed-node id decay: Lemma 6.10 bound vs simulation",
		Params: fmt.Sprintf("n=%d s=%d dL=%d delta=%g rounds=%d leavers=%d", p.N, p.S, p.DL, p.Delta, p.Rounds, p.Leavers),
	}
	t := Table{Columns: []string{"round"}}
	type curve struct {
		bound    []float64
		measured []float64
	}
	var curves []curve
	for li, l := range p.LossRates {
		bound, err := analysis.SurvivalBound(l, p.Delta, p.DL, p.S, p.Rounds)
		if err != nil {
			return nil, err
		}
		measured := make([]float64, p.Rounds+1)
		for leaver := 0; leaver < p.Leavers; leaver++ {
			sub, err := newSF(kind, p.N, p.S, p.DL, 0, l, 60, rng.DeriveSeed(p.Seed, int64(li), int64(leaver)), false)
			if err != nil {
				return nil, err
			}
			trace, err := churn.TrackLeaverDecay(sub, peer.ID(leaver), p.Rounds)
			sub.Close()
			if err != nil {
				return nil, err
			}
			for i := range measured {
				measured[i] += trace.Remaining[i] / float64(p.Leavers)
			}
		}
		curves = append(curves, curve{bound: bound, measured: measured})
		t.Columns = append(t.Columns,
			fmt.Sprintf("bound l=%.2f", l), fmt.Sprintf("sim l=%.2f", l))
	}
	for round := 0; round <= p.Rounds; round += p.Checkpoint {
		row := []string{d(round)}
		for _, c := range curves {
			row = append(row, f4(c.bound[round]), f4(c.measured[round]))
		}
		t.AddRow(row...)
	}
	r.Tables = append(r.Tables, t)
	hl, err := analysis.HalfLife(p.LossRates[0], p.Delta, p.DL, p.S)
	if err == nil {
		r.Notes = append(r.Notes, fmt.Sprintf("bound half-life at l=%g: %d rounds (paper: 'after merely 70 rounds, fewer than 50%% ... remain')", p.LossRates[0], hl))
	}
	r.Notes = append(r.Notes,
		"the bound is conservative: the simulated decay is faster (Lemma 6.9 lower-bounds the per-round removal probability with dL)",
		"the decay rate is almost unaffected by loss, as the figure shows",
	)
	return r, nil
}

// Cor614Params configures the joiner-integration reproduction.
type Cor614Params struct {
	N, S, DL int
	Loss     float64
	Joiners  int
	Seed     int64
}

// cor614Defaults returns five joiners into 400 lossless nodes at s = 40 and
// dL = 20: s/dL = 2 as in the corollary.
func cor614Defaults() Cor614Params {
	return Cor614Params{N: 400, S: 40, DL: 20, Joiners: 5, Seed: 614}
}

// Cor614 reproduces Corollary 6.14: with s/dL = 2 and l+delta << 1, a newly
// joined node is expected to create at least Din/4 instances of its id
// within 2s rounds.
func Cor614(p Cor614Params, kind runtime.EngineKind) (*Report, error) {
	rounds := 2 * p.S
	r := &Report{
		ID:    "cor6.14",
		Title: "Joiner integration: >= Din/4 id instances within 2s rounds",
		Params: fmt.Sprintf("n=%d s=%d dL=%d l=%g joiners=%d rounds=%d",
			p.N, p.S, p.DL, p.Loss, p.Joiners, rounds),
	}
	t := Table{Columns: []string{"joiner", "Din (steady)", "bound Din/4", "indegree @2s rounds", "outdegree @2s rounds"}}
	met := 0
	for j := 0; j < p.Joiners; j++ {
		sub, err := newSF(kind, p.N, p.S, p.DL, 0, p.Loss, 60, rng.DeriveSeed(p.Seed, int64(j)), false)
		if err != nil {
			return nil, err
		}
		u := peer.ID(j)
		sub.RemoveNode(u)
		runtime.Run(sub, 200) // flush the id completely
		din := graph.NewPass(p.N).Universe(sub.EachNode).MeanIn * float64(p.N) / float64(p.N-1)
		// Seeds: copy a live node's view prefix, per Section 5's join rule.
		var seeds []peer.ID
		sub.EachNode(func(w peer.ID, lv *view.View, _ protocol.StepCore) {
			if w == peer.ID(p.N-1-j) {
				seeds = lv.IDs()
			}
		})
		if len(seeds) > p.DL {
			seeds = seeds[:p.DL]
		}
		trace, err := churn.TrackJoinerIntegration(sub, u, seeds, rounds)
		sub.Close()
		if err != nil {
			return nil, err
		}
		bound := din / 4
		got := trace.Indegree[rounds]
		if float64(got) >= bound {
			met++
		}
		t.AddRow(d(j), f2(din), f2(bound), d(got), d(trace.Outdegree[rounds]))
	}
	r.Tables = append(r.Tables, t)

	// Exact expected integration curve from the degree MC: evolve a point
	// mass at the joiner's start state (dL, 0) in the steady-state field.
	res, err := degreemc.Solve(degreemc.Params{S: p.S, DL: p.DL, Loss: p.Loss}, degreemc.SolveOptions{})
	if err != nil {
		return nil, err
	}
	traj, err := res.Space.Transient(res.Field, degreemc.State{Out: p.DL, In: 0}, float64(rounds), 8)
	if err != nil {
		return nil, err
	}
	exact := Table{
		Title:   "Exact expected joiner degrees (degree-MC transient from (dL, 0))",
		Columns: []string{"round", "E[outdegree]", "E[indegree]"},
	}
	for _, pt := range traj {
		exact.AddRow(f2(pt.Round), f2(pt.MeanOut), f2(pt.MeanIn))
	}
	r.Tables = append(r.Tables, exact)

	r.Notes = append(r.Notes,
		fmt.Sprintf("%d/%d joiners met the Din/4 bound at 2s rounds (the corollary is an expectation bound)", met, p.Joiners),
		"after acquiring ~Din/4 in-neighbors the joiner receives messages and its outdegree rises above dL, ending its duplication regime",
		fmt.Sprintf("the exact chain predicts E[indegree] = %s at 2s rounds vs the Din/4 bound %s — the corollary's factor-4 slack is visible", f2(traj[len(traj)-1].MeanIn), f2(res.MeanIn()/4)),
	)
	return r, nil
}

// Lem66Params configures the duplication/deletion balance experiment.
type Lem66Params struct {
	N, S, DL int
	Delta    float64
	Losses   []float64
	Rounds   int
	Seed     int64
}

// lem66Defaults returns the paper's s = 40, dL = 18 and loss rates on 500
// nodes, measured over 300 rounds.
func lem66Defaults() Lem66Params {
	return Lem66Params{
		N: 500, S: 40, DL: 18, Delta: 0.01, Losses: []float64{0, 0.01, 0.05, 0.1},
		Rounds: 300, Seed: 66,
	}
}

// Lem66 verifies Lemmas 6.6-6.7 in simulation: in the steady state the
// duplication probability equals the loss rate plus the deletion
// probability, and lies in [l, l+delta].
func Lem66(p Lem66Params, kind runtime.EngineKind) (*Report, error) {
	r := &Report{
		ID:     "lem6.6",
		Title:  "Steady-state duplication/deletion balance (Lemmas 6.6-6.7)",
		Params: fmt.Sprintf("n=%d s=%d dL=%d rounds=%d", p.N, p.S, p.DL, p.Rounds),
	}
	t := Table{Columns: []string{"loss l", "dup prob", "del prob", "l + del", "dup - (l+del)", "in [l, l+delta]?"}}
	for i, l := range p.Losses {
		sub, err := newSF(kind, p.N, p.S, p.DL, 0, l, 100, rng.DeriveSeed(p.Seed, int64(i)), false)
		if err != nil {
			return nil, err
		}
		// Measure over a fresh window after the warm-up.
		before := sub.Counters()
		runtime.Run(sub, p.Rounds)
		after := sub.Counters()
		sub.Close()
		sends := after.Sends - before.Sends
		if sends == 0 {
			return nil, fmt.Errorf("no sends measured at l=%v", l)
		}
		dup := float64(after.Duplications-before.Duplications) / float64(sends)
		del := float64(after.DeletedIDs-before.DeletedIDs) / float64(2*sends)
		inBracket := dup >= l-0.01 && dup <= l+p.Delta+0.01
		t.AddRow(fmt.Sprintf("%.2f", l), f4(dup), f4(del), f4(l+del), f4(dup-(l+del)), fmt.Sprintf("%v", inBracket))
	}
	r.Tables = append(r.Tables, t)
	r.Notes = append(r.Notes,
		"Lemma 6.6: dup = l + del in steady state (edge conservation)",
		"Lemma 6.7: l <= dup <= l + delta; Observation 6.5: del decreases with l",
	)
	return r, nil
}
