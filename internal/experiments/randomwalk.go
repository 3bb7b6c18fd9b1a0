package experiments

import (
	"fmt"
	"math"

	"sendforget/internal/peer"
	"sendforget/internal/rng"
	"sendforget/internal/runtime"
)

// RW1Params configures the random-walk comparison.
type RW1Params struct {
	N, S, DL    int
	Loss        float64
	WalkLengths []int
	Trials      int
	Seed        int64
}

// rw1Defaults returns 20000 walks per length, 2 to 32 hops, over 400 nodes
// at s = 16, dL = 6 and 5% loss.
func rw1Defaults() RW1Params {
	return RW1Params{N: 400, S: 16, DL: 6, Loss: 0.05, WalkLengths: []int{2, 4, 8, 16, 32}, Trials: 20000, Seed: 91}
}

// RW1 quantifies the Section 3.1 argument against random-walk sampling:
// "since a single RW involves multiple id exchange steps, the probability
// of a successful RW under message loss degrades exponentially with the
// length of the random walk". Walks run over a steady-state S&F overlay
// with per-hop loss; the success probability must track (1-l)^k, while the
// gossip protocol's own local operations involve exactly one message each,
// whatever the system size.
func RW1(p RW1Params, kind runtime.EngineKind) (*Report, error) {
	sub, err := newSF(kind, p.N, p.S, p.DL, 0, p.Loss, 150, rng.Seed(p.Seed), false)
	if err != nil {
		return nil, err
	}
	// The walks run over this one steady-state snapshot.
	views := sub.Views()
	sub.Close()
	r := &Report{
		ID:     "rw1",
		Title:  "Random-walk sampling vs gossip under loss (Section 3.1)",
		Params: fmt.Sprintf("n=%d s=%d dL=%d l=%g trials=%d", p.N, p.S, p.DL, p.Loss, p.Trials),
	}
	t := Table{Columns: []string{
		"walk length k", "success rate", "(1-l)^k", "messages per sample", "gossip: msgs per action",
	}}
	walker := rng.New(rng.DeriveSeed(p.Seed, 1))
	for _, k := range p.WalkLengths {
		successes := 0
		messages := 0
		for trial := 0; trial < p.Trials; trial++ {
			node := peer.ID(walker.Intn(p.N))
			ok := true
			for hop := 0; hop < k; hop++ {
				messages++
				if walker.Bernoulli(p.Loss) {
					ok = false
					break
				}
				view := views[node]
				if view == nil {
					ok = false
					break
				}
				ids := view.IDs()
				if len(ids) == 0 {
					ok = false
					break
				}
				node = ids[walker.Intn(len(ids))]
			}
			if ok {
				successes++
			}
		}
		rate := float64(successes) / float64(p.Trials)
		t.AddRow(
			d(k),
			f4(rate),
			f4(math.Pow(1-p.Loss, float64(k))),
			f2(float64(messages)/float64(p.Trials)),
			"1",
		)
	}
	r.Tables = append(r.Tables, t)
	r.Notes = append(r.Notes,
		"a random walk long enough to mix (k ~ log n or more) fails a constant fraction of the time at realistic loss, and the failure probability compounds exponentially",
		"every S&F action is a single unacknowledged message: loss costs a bounded per-action probability (compensated by duplication), never a compounded one",
		"the walks above also assume the walker can detect hop failure; a real RW protocol cannot (the paper's point about bookkeeping), so these success rates are optimistic",
	)
	return r, nil
}
