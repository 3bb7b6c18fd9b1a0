package runtime_test

import (
	"fmt"
	"math"
	"testing"

	"sendforget/internal/degreemc"
	"sendforget/internal/runtime"
)

// The paper-oracle tests run S&F at the Figure 6.3 parameters.
const oracleS, oracleDL = 40, 18

// sfOracle solves the degree Markov chain of Section 6 for S&F at the oracle
// parameters under uniform loss ℓ. Tolerances a thousand times looser than
// the solver's defaults move the solved mean in the fifth digit and make the
// solve, which dominates the oracle tests under -race, four times cheaper;
// every oracle test solves with these options, so Solve's memo shares them.
func sfOracle(t *testing.T, loss float64) *degreemc.Result {
	t.Helper()
	sol, err := degreemc.Solve(degreemc.Params{S: oracleS, DL: oracleDL, Loss: loss}, degreemc.SolveOptions{InnerTol: 1e-7, OuterTol: 1e-5})
	if err != nil {
		t.Fatal(err)
	}
	return sol
}

// holdToPaperOracles runs sub, S&F under uniform loss ℓ, for warm rounds to
// steady state and window rounds more, drains it, and holds it to the
// paper's own predictions: the mean outdegree the degree Markov chain solves
// for (within 0.5, the tolerance of bench/sharded.go's checkSFOracle: the
// chain is a mean-field model and sits about 0.15 above the simulation at
// every n), a duplication rate over the window inside the band of Lemmas 6.6
// and 6.7, ℓ <= dup <= ℓ + δ (with the slack checkSFOracle allows: four
// standard errors of a rate near the band's edge), a realised loss rate
// within four standard errors of ℓ, one weakly connected component, and a
// conserved ledger once the delay queue is drained.
func holdToPaperOracles(t *testing.T, sub runtime.Substrate, sol *degreemc.Result, loss float64, warm, window int, label string) {
	t.Helper()
	const degreeTol = 0.5
	runtime.Run(sub, warm)
	base := sub.Counters()
	runtime.Run(sub, window)
	sub.DrainDelayed()
	cnt, tr := sub.Counters(), sub.Traffic()
	if !tr.Conserved() || sub.Pending() != 0 {
		t.Errorf("%s: ledger %+v with %d pending is not conserved after the drain", label, tr, sub.Pending())
	}
	if err := sub.CheckInvariants(); err != nil {
		t.Errorf("%s: %v", label, err)
	}

	sum, live := 0, 0
	for _, v := range sub.Views() {
		if v != nil {
			sum += v.Outdegree()
			live++
		}
	}
	mean := float64(sum) / float64(live)
	if math.Abs(mean-sol.MeanOut()) > degreeTol {
		t.Errorf("%s: mean outdegree %.3f, degree-MC predicts %.3f (tolerance %.1f)", label, mean, sol.MeanOut(), degreeTol)
	}

	sends := cnt.Sends - base.Sends
	dup := float64(cnt.Duplications-base.Duplications) / float64(sends)
	slack := 4 * math.Sqrt((loss+sol.DelProb)/float64(sends))
	if dup < loss-slack || dup > loss+sol.DelProb+slack {
		t.Errorf("%s: dup rate %.5f over %d sends outside the Lemma 6.6/6.7 band [%.5f, %.5f] +- %.5f",
			label, dup, sends, loss, loss+sol.DelProb, slack)
	}
	if got := float64(tr.Losses) / float64(tr.Sends); math.Abs(got-loss) > 4*math.Sqrt(loss*(1-loss)/float64(tr.Sends)) {
		t.Errorf("%s: realised loss rate %.5f over %d sends, configured %.5f", label, got, tr.Sends, loss)
	}
	if comps := sub.Snapshot().ComponentCount(); comps != 1 {
		t.Errorf("%s: %d weakly connected components", label, comps)
	}
	t.Logf("%s: mean outdegree %.3f (degree-MC %.3f), dup %.5f in [%.5f, %.5f] +- %.5f, loss %.5f",
		label, mean, sol.MeanOut(), dup, loss, loss+sol.DelProb, slack, float64(tr.Losses)/float64(tr.Sends))
}

// TestShardedPaperOracles holds the sharded substrate to the paper's
// predictions (holdToPaperOracles), the gate a change to the verdict draw
// order has to pass. Worker counts 1 and 4 must agree byte for byte.
func TestShardedPaperOracles(t *testing.T) {
	for _, loss := range []float64{0, 0.01, 0.05, 0.1} {
		t.Run(fmt.Sprintf("loss=%g", loss), func(t *testing.T) {
			sol := sfOracle(t, loss)
			var want string
			for _, workers := range []int{1, 4} {
				e, err := newSharded(runtime.Config{N: 2000, NewCore: sfFactory(oracleS, oracleDL), Loss: loss, Seed: 61, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				holdToPaperOracles(t, e, sol, loss, 300, 200, fmt.Sprintf("workers=%d", workers))
				if got := shardedFingerprint(e); want == "" {
					want = got
				} else if got != want {
					t.Errorf("workers=%d produced different results than workers=1", workers)
				}
			}
		})
	}
}

// TestSeqPaperOracles holds the seq engine, the one substrate that runs the
// chain's own serial schedule, to the same predictions. It bootstraps at the
// chain's mean outdegree rounded to an even number, so 500 warm rounds reach
// steady state.
func TestSeqPaperOracles(t *testing.T) {
	for _, loss := range []float64{0, 0.01, 0.05, 0.1} {
		t.Run(fmt.Sprintf("loss=%g", loss), func(t *testing.T) {
			sol := sfOracle(t, loss)
			e, err := runtime.New(runtime.Config{
				Engine: runtime.EngineSeq, N: 1000, NewCore: sfFactory(oracleS, oracleDL),
				InitDegree: 2 * int(math.Round(sol.MeanOut()/2)), Loss: loss, Seed: 61,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			holdToPaperOracles(t, e, sol, loss, 500, 400, "seq")
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
