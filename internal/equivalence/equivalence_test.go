package equivalence

import (
	"testing"

	"sendforget/internal/faults"
	"sendforget/internal/loss"
	"sendforget/internal/metrics"
	"sendforget/internal/protocol"
	"sendforget/internal/protocol/flipper"
	"sendforget/internal/protocol/pushpull"
	"sendforget/internal/protocol/sendforget"
	"sendforget/internal/protocol/sfopt"
	"sendforget/internal/protocol/shuffle"
	"sendforget/internal/stats"
)

// A case is one protocol's core factory with a matched bootstrap topology;
// every substrate is built from the same factory through runtime.New.
type equivCase struct {
	name       string
	n, rounds  int
	lossRate   float64
	initDegree int
	newCore    protocol.CoreFactory
}

func cases() []equivCase {
	const n = 60
	return []equivCase{
		{
			name: "sendforget", n: n, rounds: 150, lossRate: 0.05, initDegree: 8,
			newCore: func() (protocol.StepCore, error) { return sendforget.NewCore(12, 4) },
		},
		{
			name: "sfopt", n: n, rounds: 150, lossRate: 0.05, initDegree: 8,
			newCore: func() (protocol.StepCore, error) {
				return sfopt.NewCore(sfopt.Options{S: 12, DL: 4, ReplaceWhenFull: true, Undelete: true})
			},
		},
		{
			name: "shuffle", n: n, rounds: 80, lossRate: 0.02, initDegree: 5,
			newCore: func() (protocol.StepCore, error) { return shuffle.NewCore(10) },
		},
		{
			name: "flipper", n: n, rounds: 80, lossRate: 0.02, initDegree: 5,
			newCore: func() (protocol.StepCore, error) { return flipper.NewCore(10) },
		},
		{
			name: "pushpull", n: n, rounds: 100, lossRate: 0.05, initDegree: 5,
			newCore: func() (protocol.StepCore, error) { return pushpull.NewCore(10) },
		},
	}
}

// TestSubstrateEquivalence is the Proposition 5.2 check for every protocol:
// the sequential engine, the manually-ticked concurrent cluster, and the
// sharded tick engine, run from the same bootstrap topology under the same
// loss rate, must produce overlays with pairwise statistically matching
// in-degree distributions and mean outdegrees. Results are pooled over
// several seeds to suppress the per-run sampling noise of a 60-node system.
func TestSubstrateEquivalence(t *testing.T) {
	seeds := []int64{11, 29, 47, 83}
	for _, tc := range cases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			var engPMF, clPMF, shPMF []float64
			var engOut, clOut, shOut, engIn, clIn, shIn float64
			var engC, clC, shC protocol.Counters
			for _, seed := range seeds {
				res, err := Run(Config{
					N:          tc.n,
					Rounds:     tc.rounds,
					Loss:       tc.lossRate,
					Seed:       seed,
					InitDegree: tc.initDegree,
					NewCore:    tc.newCore,
				})
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				engPMF = accumulate(engPMF, res.Engine.InDegreePMF)
				clPMF = accumulate(clPMF, res.Cluster.InDegreePMF)
				shPMF = accumulate(shPMF, res.Sharded.InDegreePMF)
				engOut += res.Engine.MeanOut
				clOut += res.Cluster.MeanOut
				shOut += res.Sharded.MeanOut
				engIn += res.Engine.MeanIn
				clIn += res.Cluster.MeanIn
				shIn += res.Sharded.MeanIn
				engC.Add(res.Engine.Counters)
				clC.Add(res.Cluster.Counters)
				shC.Add(res.Sharded.Counters)
				if tc.name != "sendforget" {
					continue
				}
				// S&F edge bookkeeping is exact on every substrate: a send
				// above the floor removes two entries, a receive adds two
				// unless the ids are deleted. This is Lemma 6.6 (dup = loss +
				// del) with the transient term, and it holds only if the
				// substrate sums every deletion.
				for _, sub := range []struct {
					name string
					s    Substrate
				}{{"engine", res.Engine}, {"cluster", res.Cluster}, {"sharded", res.Sharded}} {
					c := sub.s.Counters
					edges := 0
					for _, v := range sub.s.Views {
						edges += v.Outdegree()
					}
					want := tc.n*tc.initDegree - 2*(c.Sends-c.Duplications) + 2*c.Receives - c.DeletedIDs
					if edges != want || c.DeletedIDs == 0 {
						t.Errorf("seed %d %s: %d edges, want %d from counters %+v", seed, sub.name, edges, want, c)
					}
				}
			}
			k := float64(len(seeds))
			engOut, clOut, shOut = engOut/k, clOut/k, shOut/k
			engIn, clIn, shIn = engIn/k, clIn/k, shIn/k
			scale(engPMF, 1/k)
			scale(clPMF, 1/k)
			scale(shPMF, 1/k)

			pairs := []struct {
				name                 string
				aPMF                 []float64
				bPMF                 []float64
				aOut, bOut, aIn, bIn float64
				aC, bC               protocol.Counters
			}{
				{"engine/cluster", engPMF, clPMF, engOut, clOut, engIn, clIn, engC, clC},
				{"engine/sharded", engPMF, shPMF, engOut, shOut, engIn, shIn, engC, shC},
				{"cluster/sharded", clPMF, shPMF, clOut, shOut, clIn, shIn, clC, shC},
			}
			for _, p := range pairs {
				ks := stats.KSDistance(p.aPMF, p.bPMF)
				t.Logf("%s: meanOut %.2f vs %.2f, meanIn %.2f vs %.2f, KS=%.3f",
					p.name, p.aOut, p.bOut, p.aIn, p.bIn, ks)
				if ks > 0.15 {
					t.Errorf("%s: in-degree KS distance %.3f exceeds 0.15", p.name, ks)
				}
				if d := relDiff(p.aOut, p.bOut); d > 0.10 {
					t.Errorf("%s: mean outdegree differs by %.1f%% (%.2f vs %.2f)", p.name, d*100, p.aOut, p.bOut)
				}
				if d := relDiff(p.aIn, p.bIn); d > 0.10 {
					t.Errorf("%s: mean indegree differs by %.1f%% (%.2f vs %.2f)", p.name, d*100, p.aIn, p.bIn)
				}
				// The protocol-event tally is the same ledger on every
				// substrate: per message, the same share of receives, floor
				// sends and deleted ids (for S&F the Lemma 6.6/6.7
				// quantities). The tail rates get a wider band than the
				// degrees: the seq engine schedules with replacement, which
				// widens the degree distribution and raises both tails.
				for _, rate := range []struct {
					what string
					a, b float64
					band float64
				}{
					{"receives/send", perSend(p.aC.Receives, p.aC), perSend(p.bC.Receives, p.bC), 0.01},
					{"duplications/send", perSend(p.aC.Duplications, p.aC), perSend(p.bC.Duplications, p.bC), 0.04},
					{"deleted ids/send", perSend(p.aC.DeletedIDs, p.aC), perSend(p.bC.DeletedIDs, p.bC), 0.04},
				} {
					t.Logf("%s: %s %.4f vs %.4f", p.name, rate.what, rate.a, rate.b)
					if d := rate.a - rate.b; d > rate.band || d < -rate.band {
						t.Errorf("%s: %s differs: %.4f vs %.4f", p.name, rate.what, rate.a, rate.b)
					}
				}
			}
		})
	}
}

// TestRunDeterminism pins that the harness is reproducible: same config,
// same result.
func TestRunDeterminism(t *testing.T) {
	tc := cases()[0]
	cfg := Config{
		N: tc.n, Rounds: 50, Loss: tc.lossRate, Seed: 5, InitDegree: tc.initDegree,
		NewCore: tc.newCore,
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.KS != b.KS || a.KSEngineSharded != b.KSEngineSharded ||
		a.Engine.Traffic != b.Engine.Traffic || a.Cluster.Traffic != b.Cluster.Traffic ||
		a.Sharded.Traffic != b.Sharded.Traffic {
		t.Errorf("two identical runs diverged: %+v vs %+v", a, b)
	}
	if a.Engine.Traffic.Sends == 0 || a.Cluster.Traffic.Sends == 0 || a.Sharded.Traffic.Sends == 0 {
		t.Error("a substrate reported no traffic")
	}
}

// TestRunValidation covers the harness's own error paths.
func TestRunValidation(t *testing.T) {
	tc := cases()[0]
	good := Config{
		N: tc.n, Rounds: 10, Seed: 1, InitDegree: tc.initDegree,
		NewCore: tc.newCore,
	}
	bad := good
	bad.N = 1
	if _, err := Run(bad); err == nil {
		t.Error("accepted n=1")
	}
	bad = good
	bad.NewCore = nil
	if _, err := Run(bad); err == nil {
		t.Error("accepted nil core factory")
	}
	bad = good
	bad.InitDegree = tc.n
	if _, err := Run(bad); err == nil {
		t.Error("accepted init degree >= n")
	}
	bad = good
	bad.Loss = 2
	if _, err := Run(bad); err == nil {
		t.Error("accepted loss > 1")
	}
}

// perSend returns count per message the initiate and receive steps emitted.
func perSend(count int, c protocol.Counters) float64 {
	return float64(count) / float64(c.Sends+c.Replies)
}

// accumulate adds q into p element-wise, growing p as needed.
func accumulate(p, q []float64) []float64 {
	if len(q) > len(p) {
		p = append(p, make([]float64, len(q)-len(p))...)
	}
	for i, v := range q {
		p[i] += v
	}
	return p
}

func scale(p []float64, f float64) {
	for i := range p {
		p[i] *= f
	}
}

func relDiff(a, b float64) float64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	m := a
	if b > m {
		m = b
	}
	if m < 1 {
		m = 1
	}
	return d / m
}

// TestTrafficExactEqualityLossless is the accounting half of Proposition
// 5.2: with no faults configured, both substrates must produce *identical*
// Traffic counters — not statistically close, equal. Push-pull with a full
// bootstrap view is the vehicle: keep-on-send views never lose entries, so
// with InitDegree == S no initiation ever self-loops and every substrate
// sends exactly n messages per round regardless of scheduling.
func TestTrafficExactEqualityLossless(t *testing.T) {
	const (
		n      = 40
		s      = 10
		rounds = 50
	)
	res, err := Run(Config{
		N: n, Rounds: rounds, Loss: 0, Seed: 7, InitDegree: s,
		NewCore: func() (protocol.StepCore, error) { return pushpull.NewCore(s) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine.Traffic != res.Cluster.Traffic || res.Engine.Traffic != res.Sharded.Traffic {
		t.Errorf("lossless traffic differs across substrates:\n engine  %+v\n cluster %+v\n sharded %+v",
			res.Engine.Traffic, res.Cluster.Traffic, res.Sharded.Traffic)
	}
	want := n * rounds
	if res.Engine.Traffic.Sends != want {
		t.Errorf("engine sends = %d, want exactly n*rounds = %d", res.Engine.Traffic.Sends, want)
	}
	for _, sub := range []struct {
		name string
		tr   metrics.Traffic
	}{{"engine", res.Engine.Traffic}, {"cluster", res.Cluster.Traffic}, {"sharded", res.Sharded.Traffic}} {
		if sub.tr.Losses != 0 || sub.tr.DeadLetters != 0 || sub.tr.Delayed != 0 {
			t.Errorf("%s: lossless run had losses/dead letters/delays: %+v", sub.name, sub.tr)
		}
		if sub.tr.Deliveries != sub.tr.Sends {
			t.Errorf("%s: deliveries %d != sends %d at loss 0", sub.name, sub.tr.Deliveries, sub.tr.Sends)
		}
	}
}

// TestTrafficConservationIdentity checks, for a protocol whose send count is
// schedule-dependent (S&F self-loops on empty slots), that each substrate
// still satisfies the exact conservation identity and that the two agree on
// volume within scheduling noise.
func TestTrafficConservationIdentity(t *testing.T) {
	const n = 60
	res, err := Run(Config{
		N: n, Rounds: 150, Loss: 0, Seed: 11, InitDegree: 8,
		NewCore: func() (protocol.StepCore, error) { return sendforget.NewCore(12, 4) },
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range []struct {
		name string
		tr   metrics.Traffic
	}{{"engine", res.Engine.Traffic}, {"cluster", res.Cluster.Traffic}, {"sharded", res.Sharded.Traffic}} {
		if sub.tr.Sends != sub.tr.Losses+sub.tr.Deliveries+sub.tr.DeadLetters {
			t.Errorf("%s: conservation identity violated: %+v", sub.name, sub.tr)
		}
		if sub.tr.Losses != 0 || sub.tr.DeadLetters != 0 {
			t.Errorf("%s: lossless full-membership run lost messages: %+v", sub.name, sub.tr)
		}
	}
	// Both cluster flavors tick every node once per round, so their volumes
	// differ only by seed noise (unlike the engine's sampling offset below).
	c, s := float64(res.Cluster.Traffic.Sends), float64(res.Sharded.Traffic.Sends)
	if diff := (c - s) / c; diff > 0.05 || diff < -0.05 {
		t.Errorf("cluster and sharded send volumes diverge beyond noise: %v vs %v", c, s)
	}
	// The volumes differ systematically, not just by noise: the cluster
	// ticks every node exactly once per round while the engine schedules n
	// uniformly random actions (with replacement), which shifts how often a
	// node initiates on an empty view and self-loops instead of sending.
	// Across seeds the cluster sends ~6-18% more; the band covers that
	// offset plus seed noise.
	e, c := float64(res.Engine.Traffic.Sends), float64(res.Cluster.Traffic.Sends)
	if diff := (e - c) / e; diff > 0.05 || diff < -0.25 {
		t.Errorf("send volumes diverge beyond scheduling offset + noise: engine %v cluster %v", e, c)
	}
}

// TestTrafficUnderBurstLoss reruns the S&F comparison under Gilbert-Elliott
// burst loss injected through Config.NewConditions: the identity must stay
// exact per substrate, and both observed loss rates must sit near the
// model's stationary rate.
func TestTrafficUnderBurstLoss(t *testing.T) {
	const (
		n    = 60
		rate = 0.2
	)
	res, err := Run(Config{
		N: n, Rounds: 150, Seed: 19, InitDegree: 8,
		NewConditions: func() (*faults.Conditions, error) {
			gem, err := loss.BurstyWithRate(rate, 4)
			if err != nil {
				return nil, err
			}
			return faults.New(gem)
		},
		NewCore: func() (protocol.StepCore, error) { return sendforget.NewCore(12, 4) },
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range []struct {
		name string
		tr   metrics.Traffic
	}{{"engine", res.Engine.Traffic}, {"cluster", res.Cluster.Traffic}, {"sharded", res.Sharded.Traffic}} {
		if sub.tr.Sends != sub.tr.Losses+sub.tr.Deliveries+sub.tr.DeadLetters {
			t.Errorf("%s: conservation identity violated under burst loss: %+v", sub.name, sub.tr)
		}
		got := float64(sub.tr.Losses) / float64(sub.tr.Sends)
		if got < rate-0.06 || got > rate+0.06 {
			t.Errorf("%s: observed loss rate %.3f far from stationary rate %.2f", sub.name, got, rate)
		}
	}
	el := float64(res.Engine.Traffic.Losses) / float64(res.Engine.Traffic.Sends)
	cl := float64(res.Cluster.Traffic.Losses) / float64(res.Cluster.Traffic.Sends)
	if d := el - cl; d > 0.05 || d < -0.05 {
		t.Errorf("substrates disagree on burst loss rate: engine %.3f cluster %.3f", el, cl)
	}
}

// TestTrafficUnderDelay checks that jittered delivery delay keeps the
// conservation identity exact after the harness drains both delay queues.
func TestTrafficUnderDelay(t *testing.T) {
	const n = 40
	res, err := Run(Config{
		N: n, Rounds: 80, Seed: 23, InitDegree: 8,
		NewConditions: func() (*faults.Conditions, error) {
			cond := faults.Lossless()
			if err := cond.SetDelay(faults.Delay{Fixed: 1, Jitter: 2}); err != nil {
				return nil, err
			}
			return cond, nil
		},
		NewCore: func() (protocol.StepCore, error) { return sendforget.NewCore(12, 4) },
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range []struct {
		name string
		tr   metrics.Traffic
	}{{"engine", res.Engine.Traffic}, {"cluster", res.Cluster.Traffic}, {"sharded", res.Sharded.Traffic}} {
		if sub.tr.Delayed == 0 {
			t.Errorf("%s: delay of 1..3 rounds delayed nothing", sub.name)
		}
		if sub.tr.Sends != sub.tr.Losses+sub.tr.Deliveries+sub.tr.DeadLetters {
			t.Errorf("%s: conservation identity violated after drain: %+v", sub.name, sub.tr)
		}
	}
}
