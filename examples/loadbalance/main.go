// Loadbalance: using the membership view as a random peer sampler for work
// assignment — the "choosing locations for data caching" application class
// from the paper's introduction.
//
// Each round every node assigns one unit of work to a peer drawn from its
// local view. A true i.i.d. sampler gives the balls-into-bins baseline;
// view-based samplers add dispersion proportional to how unequal and how
// *persistent* the indegrees are. The decisive comparison is S&F's live
// views against a frozen snapshot of the very same views: temporal
// independence (Property M5) — views that keep evolving — is what erases
// per-node hot spots. Keep-on-send push-pull is included for scale: its
// pinned-full views also rebalance, at the price of the spatial dependence
// measured in the base1 experiment.
package main

import (
	"fmt"
	"log"

	"sendforget/internal/engine"
	"sendforget/internal/loss"
	"sendforget/internal/protocol"
	"sendforget/internal/protocol/pushpull"
	"sendforget/internal/protocol/sendforget"
	"sendforget/internal/rng"
	"sendforget/internal/stats"
	"sendforget/internal/view"
)

const (
	n      = 300
	s      = 16
	dl     = 6
	rounds = 200
)

func main() {
	fmt.Printf("assigning %d work unit per node per round over %d rounds (n=%d)\n\n", 1, rounds, n)
	fmt.Println("sampler                 max load  mean load  load stddev  chi2/df")

	runCase("true uniform (i.i.d.)", func(int) []*view.View { return nil })

	sf := buildSF()
	runCase("S&F (live views)", func(round int) []*view.View {
		sf.Round()
		return sf.Views()
	})

	frozen := buildSF()
	frozen.Run(1) // settle, then freeze
	frozenViews := snapshotViews(frozen.Views())
	runCase("S&F (frozen snapshot)", func(int) []*view.View {
		return frozenViews
	})

	pp := buildPushPull()
	runCase("push-pull (live views)", func(round int) []*view.View {
		pp.Round()
		return pp.Views()
	})

	fmt.Println()
	fmt.Println("the frozen snapshot keeps hammering the same targets; letting the")
	fmt.Println("views evolve (Property M5, temporal independence) closes most of the")
	fmt.Println("gap to the i.i.d. baseline without any coordination.")
}

func buildSF() *engine.Engine {
	newCore := func() (protocol.StepCore, error) { return sendforget.NewCore(s, dl) }
	return warmedUp(newCore, sendforget.DefaultInitDegree(s, dl, n), 41)
}

// buildPushPull starts from full views: keep-on-send views only ever fill.
func buildPushPull() *engine.Engine {
	newCore := func() (protocol.StepCore, error) { return pushpull.NewCore(s) }
	return warmedUp(newCore, s, 42)
}

func warmedUp(newCore protocol.CoreFactory, initDegree int, seed int64) *engine.Engine {
	eng, err := engine.New(newCore, n, initDegree, loss.MustUniform(0.02), rng.New(seed))
	if err != nil {
		log.Fatal(err)
	}
	eng.Run(100)
	return eng
}

// runCase distributes work by sampling one target per node per round from
// the views the source yields, then reports the load distribution.
func runCase(name string, viewsAt func(round int) []*view.View) {
	r := rng.New(77)
	load := make([]int, n)
	for round := 0; round < rounds; round++ {
		views := viewsAt(round)
		for u := 0; u < n; u++ {
			if views == nil {
				// The i.i.d. reference: any peer, uniformly.
				load[r.Intn(n)]++
				continue
			}
			if views[u] == nil {
				continue
			}
			ids := views[u].IDs()
			if len(ids) == 0 {
				continue
			}
			target := ids[r.Intn(len(ids))]
			if int(target) >= 0 && int(target) < n {
				load[target]++
			}
		}
	}
	var acc stats.Accumulator
	maxLoad := 0
	for _, l := range load {
		acc.Add(float64(l))
		if l > maxLoad {
			maxLoad = l
		}
	}
	stat, _, err := stats.ChiSquareUniformTest(load)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-22s  %8d  %9.1f  %11.2f  %7.2f\n",
		name, maxLoad, acc.Mean(), acc.StdDev(), stat/float64(n-1))
}

// snapshotViews deep-copies views so the frozen case cannot drift.
func snapshotViews(vs []*view.View) []*view.View {
	out := make([]*view.View, len(vs))
	for i, v := range vs {
		if v != nil {
			out[i] = v.Clone()
		}
	}
	return out
}
