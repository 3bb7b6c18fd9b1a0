package globalmc

import (
	"testing"

	"sendforget/internal/engine"
	"sendforget/internal/loss"
	"sendforget/internal/markov"
	"sendforget/internal/peer"
	"sendforget/internal/protocol"
	"sendforget/internal/protocol/sendforget"
	"sendforget/internal/rng"
)

// TestSimulatorMatchesExactStationary is the strongest consistency check in
// the repository: the sequential engine driving the real protocol
// implementation at n=3 must visit membership-graph states with the
// frequencies of the exact chain's stationary distribution. Any divergence
// between the protocol code and the transition enumeration (duplication
// rule, deletion rule, pair-selection probabilities) shows up here — in
// particular it independently confirms the non-uniform stationary
// distribution on the lossless manifold (the duplicate-multiplicity effect
// documented at Lemma 7.5).
func TestSimulatorMatchesExactStationary(t *testing.T) {
	const (
		n  = 3
		s  = 6
		dl = 0
	)
	chain, err := Build(Params{N: n, S: s, DL: dl, Loss: 0}, Circulant(n, 2))
	if err != nil {
		t.Fatal(err)
	}
	pi, err := chain.Stationary(1e-12, 5000000)
	if err != nil {
		t.Fatal(err)
	}

	newCore := func() (protocol.StepCore, error) { return sendforget.NewCore(s, dl) }
	e, err := engine.New(newCore, n, 2, loss.None{}, rng.New(99))
	if err != nil {
		t.Fatal(err)
	}
	// Burn in, then sample state occupancy after every step.
	e.Run(200)
	const samples = 2000000
	occupancy := make([]float64, chain.Len())
	unknown := 0
	current := NewState(n)
	for k := 0; k < samples; k++ {
		e.Step()
		for u := 0; u < n; u++ {
			row := current.Mult[u]
			for v := range row {
				row[v] = 0
			}
			if lv := e.View(peer.ID(u)); lv != nil {
				for _, id := range lv.IDs() {
					row[id]++
				}
			}
		}
		if idx, ok := chain.Index(current); ok {
			occupancy[idx]++
		} else {
			unknown++
		}
	}
	// Lossless manifold dynamics cannot leave the enumerated set.
	if unknown > 0 {
		t.Fatalf("simulator visited %d samples outside the enumerated chain", unknown)
	}
	for i := range occupancy {
		occupancy[i] /= samples
	}
	if tv := markov.TV(occupancy, pi); tv > 0.02 {
		t.Errorf("TV(simulated occupancy, exact stationary) = %v, want <= 0.02", tv)
	}
	// The duplicate-free state must sit at (or tie for, within sampling
	// noise) the top of the simulated occupancy — the exact distribution
	// has several states sharing the maximum probability.
	maxOcc, dupFreeOcc := 0.0, -1.0
	for i, st := range chain.States() {
		if occupancy[i] > maxOcc {
			maxOcc = occupancy[i]
		}
		if duplicateOverflow(st) == 0 {
			dupFreeOcc = occupancy[i]
		}
	}
	if dupFreeOcc < 0 {
		t.Fatal("no duplicate-free state enumerated")
	}
	if dupFreeOcc < 0.9*maxOcc {
		t.Errorf("duplicate-free state occupancy %v well below max %v", dupFreeOcc, maxOcc)
	}
}
