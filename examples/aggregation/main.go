// Aggregation: gossip-based averaging driven by S&F membership samples —
// one of the applications the paper's introduction motivates ("gathering
// statistics, gossip-based aggregation").
//
// Every node holds a numeric value; in each round every node picks a
// partner *from its S&F view* and the pair averages their values. With
// uniform, independent views (Properties M3/M4) this converges to the true
// mean exponentially fast. For contrast, the same computation run over a
// static ring converges far slower — the value of maintaining good views.
package main

import (
	"fmt"
	"log"
	"math"

	"sendforget/internal/peer"
	"sendforget/internal/protocol"
	"sendforget/internal/protocol/sendforget"
	"sendforget/internal/rng"
	"sendforget/internal/runtime"
	"sendforget/internal/view"
)

const (
	n      = 256
	rounds = 60
)

func main() {
	// True mean of the initial values 0..n-1.
	trueMean := float64(n-1) / 2

	sfErr, err := runAveraging(newSFSampler())
	if err != nil {
		log.Fatal(err)
	}
	ringErr, err := runAveraging(ringSampler{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("averaging %d nodes toward true mean %.1f\n\n", n, trueMean)
	fmt.Println("round  max error (S&F views)  max error (static ring)")
	for r := 0; r <= rounds; r += 5 {
		fmt.Printf("%5d  %22.4f  %23.4f\n", r, sfErr[r], ringErr[r])
	}
	fmt.Println("\nuniform independent views mix the values in O(log n) rounds;")
	fmt.Println("the ring needs O(n^2) — the membership service is what makes")
	fmt.Println("gossip aggregation fast.")
}

// sampler yields a gossip partner for node u in the current round.
type sampler interface {
	partner(u peer.ID, r *rng.RNG) (peer.ID, bool)
	tick() // advance the membership protocol one round, if any
}

// sfSampler samples partners from live S&F views maintained under loss.
type sfSampler struct {
	sub   runtime.Substrate
	views []*view.View // as of the last tick
}

func newSFSampler() *sfSampler {
	const s, dl = 16, 6
	newCore := func() (protocol.StepCore, error) { return sendforget.NewCore(s, dl) }
	sub, err := runtime.New(runtime.Config{Engine: runtime.EngineSeq, N: n, NewCore: newCore, InitDegree: sendforget.DefaultInitDegree(s, dl, n), Loss: 0.02, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	runtime.Run(sub, 100) // reach the steady state first
	return &sfSampler{sub: sub}
}

func (s *sfSampler) partner(u peer.ID, r *rng.RNG) (peer.ID, bool) {
	ids := s.views[u].IDs()
	if len(ids) == 0 {
		return 0, false
	}
	return ids[r.Intn(len(ids))], true
}

// tick keeps the membership evolving while the aggregation runs, providing
// fresh samples (temporal independence, Property M5).
func (s *sfSampler) tick() {
	s.sub.TickRound()
	s.views = s.sub.Views()
}

// ringSampler is the contrast: each node only ever talks to its two ring
// neighbors.
type ringSampler struct{}

func (ringSampler) partner(u peer.ID, r *rng.RNG) (peer.ID, bool) {
	if r.Bernoulli(0.5) {
		return peer.ID((int(u) + 1) % n), true
	}
	return peer.ID((int(u) + n - 1) % n), true
}

func (ringSampler) tick() {}

// runAveraging runs pairwise averaging and returns the max absolute error
// per round.
func runAveraging(s sampler) ([]float64, error) {
	values := make([]float64, n)
	for i := range values {
		values[i] = float64(i)
	}
	trueMean := float64(n-1) / 2
	r := rng.New(99)
	errs := make([]float64, rounds+1)
	errs[0] = maxErr(values, trueMean)
	for round := 1; round <= rounds; round++ {
		s.tick()
		for u := 0; u < n; u++ {
			v, ok := s.partner(peer.ID(u), r)
			if !ok || int(v) == u || int(v) < 0 || int(v) >= n {
				continue
			}
			avg := (values[u] + values[v]) / 2
			values[u], values[v] = avg, avg
		}
		errs[round] = maxErr(values, trueMean)
	}
	return errs, nil
}

func maxErr(values []float64, mean float64) float64 {
	worst := 0.0
	for _, v := range values {
		if e := math.Abs(v - mean); e > worst {
			worst = e
		}
	}
	return worst
}
