package runtime_test

import (
	"fmt"
	"math"
	"testing"

	"sendforget/internal/degreemc"
	"sendforget/internal/runtime"
)

// TestShardedPaperOracles holds the sharded substrate to the paper's own
// predictions, the gate a change to the verdict draw order has to pass: S&F at
// the Figure 6.3 parameters (s = 40, dL = 18) under uniform loss ℓ, run to
// steady state, must show the mean outdegree the degree Markov chain of
// Section 6 solves for (within 0.5, the tolerance of bench/sharded.go's
// checkSFOracle: the chain is a mean-field model and sits about 0.15 above the
// simulation at every n), a duplication rate over the steady-state window
// inside the band of Lemmas 6.6 and 6.7, ℓ <= dup <= ℓ + δ (with the slack
// checkSFOracle allows: four standard errors of a rate near the band's edge),
// one weakly connected component, and a conserved ledger once the delay
// calendar is drained. Worker counts 1 and 4 must agree byte for byte.
func TestShardedPaperOracles(t *testing.T) {
	const (
		n, s, dl     = 2000, 40, 18
		warm, window = 300, 200
		degreeTol    = 0.5
	)
	for _, loss := range []float64{0, 0.01, 0.05, 0.1} {
		t.Run(fmt.Sprintf("loss=%g", loss), func(t *testing.T) {
			// Tolerances a thousand times looser than the solver's defaults
			// move the solved mean in the fifth digit and make the solve,
			// which dominates this test under -race, four times cheaper.
			sol, err := degreemc.Solve(degreemc.Params{S: s, DL: dl, Loss: loss}, degreemc.SolveOptions{InnerTol: 1e-7, OuterTol: 1e-5})
			if err != nil {
				t.Fatal(err)
			}
			var want string
			for _, workers := range []int{1, 4} {
				e, err := newSharded(runtime.Config{N: n, NewCore: sfFactory(s, dl), Loss: loss, Seed: 61, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				for round := 0; round < warm; round++ {
					e.TickRound()
				}
				base := e.Counters()
				for round := 0; round < window; round++ {
					e.TickRound()
				}
				e.DrainDelayed()
				cnt, tr := e.Counters(), e.Traffic()
				if !tr.Conserved() || e.Pending() != 0 {
					t.Errorf("workers=%d: ledger %+v with %d pending is not conserved after the drain", workers, tr, e.Pending())
				}
				if err := e.CheckInvariants(); err != nil {
					t.Errorf("workers=%d: %v", workers, err)
				}

				sum, live := 0, 0
				for _, v := range e.Views() {
					if v != nil {
						sum += v.Outdegree()
						live++
					}
				}
				mean := float64(sum) / float64(live)
				if math.Abs(mean-sol.MeanOut()) > degreeTol {
					t.Errorf("workers=%d: mean outdegree %.3f, degree-MC predicts %.3f (tolerance %.1f)", workers, mean, sol.MeanOut(), degreeTol)
				}

				sends := cnt.Sends - base.Sends
				dup := float64(cnt.Duplications-base.Duplications) / float64(sends)
				slack := 4 * math.Sqrt((loss+sol.DelProb)/float64(sends))
				if dup < loss-slack || dup > loss+sol.DelProb+slack {
					t.Errorf("workers=%d: dup rate %.5f over %d sends outside the Lemma 6.6/6.7 band [%.5f, %.5f] +- %.5f",
						workers, dup, sends, loss, loss+sol.DelProb, slack)
				}
				if got := float64(tr.Losses) / float64(tr.Sends); math.Abs(got-loss) > 4*math.Sqrt(loss*(1-loss)/float64(tr.Sends)) {
					t.Errorf("workers=%d: realised loss rate %.5f over %d sends, configured %.5f", workers, got, tr.Sends, loss)
				}
				if comps := e.Snapshot().ComponentCount(); comps != 1 {
					t.Errorf("workers=%d: %d weakly connected components", workers, comps)
				}
				t.Logf("workers=%d: mean outdegree %.3f (degree-MC %.3f), dup %.5f in [%.5f, %.5f] +- %.5f, loss %.5f",
					workers, mean, sol.MeanOut(), dup, loss, loss+sol.DelProb, slack, float64(tr.Losses)/float64(tr.Sends))

				if got := shardedFingerprint(e); want == "" {
					want = got
				} else if got != want {
					t.Errorf("workers=%d produced different results than workers=1", workers)
				}
			}
		})
	}
}

// TestShardedVerdictStreams holds every shard's own verdict stream to the
// configured rate: the loss a shard realised over the messages addressed to it
// must sit within four standard errors of ℓ, so no shard's stream is
// degenerate (all-pass, all-drop, or a copy of a neighbour's that happens to
// average out in the total), and no two shards may have drawn the same run of
// verdicts.
func TestShardedVerdictStreams(t *testing.T) {
	for _, loss := range []float64{0.01, 0.05, 0.1} {
		e, err := newSharded(runtime.Config{N: 4000, NewCore: sfFactory(40, 18), Loss: loss, Seed: 67, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		for round := 0; round < 300; round++ {
			e.TickRound()
		}
		ledgers := runtime.ShardLedgers(e)
		if len(ledgers) != 16 {
			t.Fatalf("%d shards, want 16", len(ledgers))
		}
		seen := map[[2]int]int{}
		for k, tr := range ledgers {
			rate := float64(tr.Losses) / float64(tr.Sends)
			if se := math.Sqrt(loss * (1 - loss) / float64(tr.Sends)); math.Abs(rate-loss) > 4*se {
				t.Errorf("loss=%g: shard %d realised %.5f over %d messages, more than four standard errors (%.5f) from the configured rate", loss, k, rate, tr.Sends, se)
			}
			if other, dup := seen[[2]int{tr.Sends, tr.Losses}]; dup {
				t.Errorf("loss=%g: shards %d and %d have the same ledger %+v", loss, other, k, tr)
			}
			seen[[2]int{tr.Sends, tr.Losses}] = k
		}
	}
}
