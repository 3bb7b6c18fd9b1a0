// Churn: joins and leaves under message loss (Section 6.5 of the paper).
//
// A node leaves — taking no protocol action at all — and its id decays out
// of the other views; the measured decay stays below the Lemma 6.10 bound.
// A node then joins with dL seed ids copied from a live view, and within
// about 2s rounds it has acquired a quarter of the steady-state indegree
// (Corollary 6.14) and a healthy outdegree.
package main

import (
	"fmt"
	"log"

	"sendforget/internal/analysis"
	"sendforget/internal/churn"
	"sendforget/internal/engine"
	"sendforget/internal/loss"
	"sendforget/internal/metrics"
	"sendforget/internal/peer"
	"sendforget/internal/protocol"
	"sendforget/internal/protocol/sendforget"
	"sendforget/internal/rng"
)

const (
	n        = 300
	s        = 40
	dl       = 20 // s/dL = 2, the Corollary 6.14 regime
	lossRate = 0.02
	delta    = 0.01
)

func main() {
	newCore := func() (protocol.StepCore, error) { return sendforget.NewCore(s, dl) }
	eng, err := engine.New(newCore, n, sendforget.DefaultInitDegree(s, dl, n), loss.MustUniform(lossRate), rng.New(3))
	if err != nil {
		log.Fatal(err)
	}
	eng.Run(80) // steady state
	din := metrics.Degrees(eng.Snapshot(), nil).MeanIn
	fmt.Printf("steady state reached: mean indegree %.1f at loss %.0f%%\n\n", din, lossRate*100)

	// --- Leave ---------------------------------------------------------
	const leaver = peer.ID(7)
	decay, err := churn.TrackLeaverDecay(eng, leaver, 200)
	if err != nil {
		log.Fatal(err)
	}
	bound, err := analysis.SurvivalBound(lossRate, delta, dl, s, 200)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("node %v left (no protocol action) with %d id instances in views\n", leaver, decay.Initial)
	fmt.Println("rounds since leave   remaining (sim)   Lemma 6.10 bound")
	for _, r := range []int{0, 25, 50, 75, 100, 150, 200} {
		fmt.Printf("%18d   %15.3f   %16.3f\n", r, decay.Remaining[r], bound[r])
	}
	fmt.Printf("half-life: %d rounds (the bound's half-life is %d; Lemma 6.10 bounds the\n", decay.HalfLife(), mustHalfLife())
	fmt.Printf("expectation — a single leaver with ~%d instances fluctuates around it,\n", decay.Initial)
	fmt.Println("see the fig6.4 experiment for the averaged curve)")
	fmt.Println()

	// --- Join ----------------------------------------------------------
	joiner := peer.ID(9)
	eng.Leave(joiner)
	eng.Run(200) // flush its id before re-joining
	seeds := eng.View(peer.ID(n - 1)).IDs()
	if len(seeds) > dl {
		seeds = seeds[:dl]
	}
	trace, err := churn.TrackJoinerIntegration(eng, joiner, seeds, 2*s)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("node %v joined with %d seed ids (outdegree dL=%d, indegree 0)\n", joiner, len(seeds), dl)
	fmt.Println("rounds since join   indegree   outdegree")
	for _, r := range []int{0, 10, 20, 40, 60, 80} {
		fmt.Printf("%17d   %8d   %9d\n", r, trace.Indegree[r], trace.Outdegree[r])
	}
	fmt.Printf("\nCorollary 6.14 bound: >= Din/4 = %.1f id instances within 2s = %d rounds; got %d\n",
		din/4, 2*s, trace.Indegree[2*s])
}

func mustHalfLife() int {
	hl, err := analysis.HalfLife(lossRate, delta, dl, s)
	if err != nil {
		log.Fatal(err)
	}
	return hl
}
