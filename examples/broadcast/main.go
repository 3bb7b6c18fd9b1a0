// Broadcast: rumor spreading over membership overlays after prolonged
// exposure to message loss.
//
// The same push rumor-mongering runs over three overlays that each spent
// 300 rounds under 5% loss: S&F (compensates for loss), keep-on-send
// push-pull (loss-immune but spatially dependent), and delete-on-send
// shuffle (decays under loss — Section 3.1). The experiment shows why the
// membership layer's loss behaviour decides whether dissemination on top of
// it can work at all.
package main

import (
	"fmt"
	"log"

	"sendforget/internal/peer"
	"sendforget/internal/protocol"
	"sendforget/internal/protocol/pushpull"
	"sendforget/internal/protocol/sendforget"
	"sendforget/internal/protocol/shuffle"
	"sendforget/internal/rng"
	"sendforget/internal/runtime"
	"sendforget/internal/view"
)

const (
	n         = 400
	s         = 20
	lossRate  = 0.05
	warm      = 300
	fanout    = 2
	maxRounds = 40
)

func main() {
	overlays := []struct {
		name    string
		newCore protocol.CoreFactory
	}{
		{"send&forget", func() (protocol.StepCore, error) { return sendforget.NewCore(s, 8) }},
		{"push-pull", func() (protocol.StepCore, error) { return pushpull.NewCore(s) }},
		{"shuffle", func() (protocol.StepCore, error) { return shuffle.NewCore(s) }},
	}

	fmt.Printf("rumor spreading over overlays aged %d rounds at %.0f%%%% loss (fanout %d)\n\n",
		warm, lossRate*100, fanout)
	fmt.Println("overlay       edges/node   coverage by round (5/10/20/40)")
	for _, o := range overlays {
		eng, err := runtime.New(runtime.Config{Engine: runtime.EngineSeq, N: n, NewCore: o.newCore, InitDegree: 10, Loss: lossRate, Seed: 17})
		if err != nil {
			log.Fatal(err)
		}
		runtime.Run(eng, warm)
		edges := float64(eng.Snapshot().NumEdges()) / n
		cov := spread(eng.Views(), rng.New(23))
		fmt.Printf("%-12s  %10.2f   %5.3f / %5.3f / %5.3f / %5.3f\n",
			o.name, edges, cov[5], cov[10], cov[20], cov[40])
	}
	fmt.Println("\nshuffle's decayed overlay cannot reach everyone; S&F matches the")
	fmt.Println("loss-immune baseline while keeping views balanced and independent.")
}

// spread infects node 0 and pushes the rumor to fanout random view entries
// per round per infected node (the rumor messages themselves are also
// subject to loss). It returns the coverage fraction per round.
func spread(views []*view.View, r *rng.RNG) []float64 {
	infected := make([]bool, n)
	infected[0] = true
	count := 1
	cov := make([]float64, maxRounds+1)
	cov[0] = 1.0 / n
	for round := 1; round <= maxRounds; round++ {
		var newly []peer.ID
		for u := 0; u < n; u++ {
			if !infected[u] || views[u] == nil {
				continue
			}
			ids := views[u].IDs()
			for k := 0; k < fanout && len(ids) > 0; k++ {
				target := ids[r.Intn(len(ids))]
				if r.Bernoulli(lossRate) {
					continue // rumor message lost
				}
				if int(target) >= 0 && int(target) < n && !infected[target] {
					infected[target] = true
					newly = append(newly, target)
				}
			}
		}
		count += len(newly)
		cov[round] = float64(count) / n
	}
	return cov
}
