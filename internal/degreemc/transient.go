package degreemc

import (
	"fmt"
	"math"

	"sendforget/internal/markov"
)

// TransientPoint is one sample of the transient degree evolution.
type TransientPoint struct {
	Round   float64
	MeanOut float64
	MeanIn  float64
}

// Transient evolves a point mass at from under the chain with field f and
// returns samples+1 trajectory points spanning [0, maxRounds] — the exact
// expected degree evolution of, e.g., a joiner starting at (dL, 0)
// (Section 6.5). The field should come from a converged Solve so the
// environment is the steady state the joiner integrates into.
func (sp *Space) Transient(f Field, from State, maxRounds float64, samples int) ([]TransientPoint, error) {
	if maxRounds <= 0 || samples < 1 {
		return nil, fmt.Errorf("degreemc: invalid transient request maxRounds=%v samples=%d", maxRounds, samples)
	}
	k0, ok := sp.Index(from)
	if !ok {
		return nil, fmt.Errorf("degreemc: transient start %+v outside state space", from)
	}
	tmpl, err := sp.newChainTemplate()
	if err != nil {
		return nil, err
	}
	w, err := tmpl.rewrite(f)
	if err != nil {
		return nil, err
	}
	// One chain step spans s(s-1)/w rounds (see rewrite).
	roundsPerStep := float64(sp.par.S*(sp.par.S-1)) / w
	dist := make([]float64, sp.Len())
	dist[k0] = 1
	out := make([]TransientPoint, 0, samples+1)
	record := func(round float64) {
		mo, mi := 0.0, 0.0
		for k, p := range dist {
			mo += p * float64(sp.states[k].Out)
			mi += p * float64(sp.states[k].In)
		}
		out = append(out, TransientPoint{Round: round, MeanOut: mo, MeanIn: mi})
	}
	record(0)
	stepsDone := 0
	for i := 1; i <= samples; i++ {
		targetRound := maxRounds * float64(i) / float64(samples)
		targetSteps := int(math.Round(targetRound / roundsPerStep))
		for stepsDone < targetSteps {
			dist = markov.Step(tmpl.csr, dist)
			stepsDone++
		}
		record(targetRound)
	}
	return out, nil
}
