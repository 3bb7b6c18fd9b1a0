// Benchmark harness: one benchmark per paper table/figure (regenerating the
// artifact end to end via the experiments registry) plus micro-benchmarks
// of the hot paths. Run everything with
//
//	go test -bench=. -benchmem
//
// Heavy experiment benches execute once per iteration; the default
// -benchtime keeps b.N at 1 for them.
package sendforget_test

import (
	"testing"

	"sendforget/internal/degreemc"
	"sendforget/internal/engine"
	"sendforget/internal/experiments"
	"sendforget/internal/faults"
	"sendforget/internal/globalmc"
	"sendforget/internal/loss"
	"sendforget/internal/markov"
	"sendforget/internal/peer"
	"sendforget/internal/protocol"
	"sendforget/internal/protocol/flipper"
	"sendforget/internal/protocol/pushpull"
	"sendforget/internal/protocol/sendforget"
	"sendforget/internal/protocol/sfopt"
	"sendforget/internal/protocol/shuffle"
	"sendforget/internal/rng"
	"sendforget/internal/runtime"
	"sendforget/internal/view"
)

// benchExperiment regenerates one registered experiment per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run(id); err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
}

// Paper artifacts (see DESIGN.md per-experiment index).

func BenchmarkFig61(b *testing.B)  { benchExperiment(b, "fig6.1") }
func BenchmarkFig62(b *testing.B)  { benchExperiment(b, "fig6.2") }
func BenchmarkTab63(b *testing.B)  { benchExperiment(b, "tab6.3") }
func BenchmarkFig63(b *testing.B)  { benchExperiment(b, "fig6.3") }
func BenchmarkFig64(b *testing.B)  { benchExperiment(b, "fig6.4") }
func BenchmarkCor614(b *testing.B) { benchExperiment(b, "cor6.14") }
func BenchmarkLem66(b *testing.B)  { benchExperiment(b, "lem6.6") }
func BenchmarkLem76(b *testing.B)  { benchExperiment(b, "lem7.6") }
func BenchmarkLem78(b *testing.B)  { benchExperiment(b, "lem7.8") }
func BenchmarkLem79(b *testing.B)  { benchExperiment(b, "lem7.9") }
func BenchmarkTab74(b *testing.B)  { benchExperiment(b, "tab7.4") }
func BenchmarkLem715(b *testing.B) { benchExperiment(b, "lem7.15") }

// Exact global-chain verification (Lemmas 7.1/7.2/7.5/7.6 at n=3).

func BenchmarkLem75(b *testing.B) { benchExperiment(b, "lem7.5") }

// Baseline comparison, churn extension, and ablations.

func BenchmarkBaselines(b *testing.B)          { benchExperiment(b, "base1") }
func BenchmarkRandomWalk(b *testing.B)         { benchExperiment(b, "rw1") }
func BenchmarkChurnWorkload(b *testing.B)      { benchExperiment(b, "churn1") }
func BenchmarkAblationBurstLoss(b *testing.B)  { benchExperiment(b, "abl1") }
func BenchmarkAblationDL(b *testing.B)         { benchExperiment(b, "abl2") }
func BenchmarkAblationOpt(b *testing.B)        { benchExperiment(b, "abl3") }
func BenchmarkAblationNonuniform(b *testing.B) { benchExperiment(b, "abl4") }

// Micro-benchmarks of the hot paths.

// BenchmarkEngineStep measures raw protocol-action throughput in the
// sequential simulator (one S&F action per op, including loss decisions).
func BenchmarkEngineStep(b *testing.B) {
	benchEngineStep(b, sfCoreFactory(40, 18))
}

// BenchmarkEngineStepTracked adds per-entry dependence tracking.
func BenchmarkEngineStepTracked(b *testing.B) {
	benchEngineStep(b, func() (protocol.StepCore, error) { return sendforget.NewTrackedCore(40, 18) })
}

func benchEngineStep(b *testing.B, newCore protocol.CoreFactory) {
	e, err := engine.New(newCore, 1000, sendforget.DefaultInitDegree(40, 18, 1000), loss.MustUniform(0.01), rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkProtocolSteps measures the bare protocol steps: one initiate and,
// when it sent, the receive that puts the ids back so the view's occupancy
// stays stationary.
func BenchmarkProtocolSteps(b *testing.B) {
	core, err := sendforget.NewCore(40, 18)
	if err != nil {
		b.Fatal(err)
	}
	lv := view.New(40)
	for i := 0; i < 28; i++ {
		lv.Set(i, peer.ID(i+1))
	}
	r := rng.New(2)
	var ob protocol.Outbox
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ob.Reset()
		if _, _, ok := core.InitiateBatch(lv, 0, r, &ob); ok {
			m := &ob.Msgs[0]
			core.ReceiveBatch(lv, 0, protocol.Packet{Kind: m.Kind, From: m.From, IDs: ob.MsgIDs(m), Dup: m.Dup}, r, &ob)
		}
	}
}

// BenchmarkDegreeMCSolveSmall solves a small degree MC to a fixed point.
// The cache is reset every iteration so the fixed-point computation itself
// is what gets timed.
func BenchmarkDegreeMCSolveSmall(b *testing.B) {
	for i := 0; i < b.N; i++ {
		degreemc.ResetSolveCache()
		if _, err := degreemc.Solve(degreemc.Params{S: 16, DL: 6, Loss: 0.05}, degreemc.SolveOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDegreeMCSolveCached measures a cache hit: the steady-state lookup
// path the experiment runners take when they re-request a solved chain.
func BenchmarkDegreeMCSolveCached(b *testing.B) {
	par := degreemc.Params{S: 16, DL: 6, Loss: 0.05}
	if _, err := degreemc.Solve(par, degreemc.SolveOptions{}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := degreemc.Solve(par, degreemc.SolveOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStationary measures power iteration on a mid-size sparse chain
// (the adjacency-list representation the builders produce).
func BenchmarkStationary(b *testing.B) {
	sp, err := degreemc.NewSpace(degreemc.Params{S: 40, DL: 18, Loss: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	chain, err := sp.BuildChain(degreemc.Field{PFull: 0.01, Gap: 25, PDup: 0.06})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := markov.Stationary(chain, nil, 1e-9, 1000000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStationaryCSR measures the same power iteration on the finalized
// CSR form the solver now iterates.
func BenchmarkStationaryCSR(b *testing.B) {
	sp, err := degreemc.NewSpace(degreemc.Params{S: 40, DL: 18, Loss: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	chain, err := sp.BuildChain(degreemc.Field{PFull: 0.01, Gap: 25, PDup: 0.06})
	if err != nil {
		b.Fatal(err)
	}
	csr := chain.Finalize()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := markov.Stationary(csr, nil, 1e-9, 1000000); err != nil {
			b.Fatal(err)
		}
	}
}

// sfCoreFactory builds S&F step cores for the runtime benchmarks.
func sfCoreFactory(s, dl int) protocol.CoreFactory {
	return func() (protocol.StepCore, error) { return sendforget.NewCore(s, dl) }
}

// benchProtocols lists the five protocols the sharded engine runs
// allocation-free, at view size 16 (matching the sendforget baseline rows).
func benchProtocols() []struct {
	name    string
	factory protocol.CoreFactory
} {
	return []struct {
		name    string
		factory protocol.CoreFactory
	}{
		{"sf", sfCoreFactory(16, 6)},
		{"sfopt", func() (protocol.StepCore, error) {
			return sfopt.NewCore(sfopt.Options{S: 16, DL: 6, ReplaceWhenFull: true, Undelete: true})
		}},
		{"shuffle", func() (protocol.StepCore, error) { return shuffle.NewCore(16) }},
		{"flipper", func() (protocol.StepCore, error) { return flipper.NewCore(16) }},
		{"pushpull", func() (protocol.StepCore, error) { return pushpull.NewCore(16) }},
	}
}

// BenchmarkClusterTick measures one full synchronous round of the sharded
// tick engine (n initiate steps plus all triggered receive steps and loss
// decisions), built by runtime.New and driven through the Substrate
// interface, reporting ns/node-tick so runs at different n compare directly:
//
//   - sharded: S&F at 10k, 100k, and (full mode only; skipped under -short)
//     1M nodes.
//   - sharded/<proto>: each of the five protocols at 10k and 100k, and two
//     of them under jittered delay.
//
// The family exists for its allocs/op column: CI's zero-alloc guard reads
// every row. Performance is quoted from bench/ (see bench/README.md), which
// also times the goroutine-per-node path (runtime.node_tick_us), the codec
// (transport.marshal_ns/unmarshal_ns) and the pair draw (rng.fastpair_ns)
// this file used to carry rows for.
func BenchmarkClusterTick(b *testing.B) {
	sharded := func(factory protocol.CoreFactory, n int, delay faults.Delay) func(*testing.B) {
		// Arena capacity creeps up for hundreds of rounds at n>=100k (the
		// in-flight message high-water mark drifts under loss), so the
		// larger sizes need a longer warm-up before allocs/op reads 0.
		warm := 150
		if n > 10_000 {
			warm = 500
		}
		return func(b *testing.B) {
			cond, err := faults.FromRate(0.02)
			if err != nil {
				b.Fatal(err)
			}
			if err := cond.SetDelay(delay); err != nil {
				b.Fatal(err)
			}
			sub, err := runtime.New(runtime.Config{
				Engine: runtime.EngineSharded, N: n, NewCore: factory, Conditions: cond, Seed: 10,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer sub.Close()
			// Warm up the arenas so the timed region measures the
			// zero-allocation steady state, not one-time buffer growth.
			for i := 0; i < warm; i++ {
				sub.TickRound()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sub.TickRound()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/node-tick")
		}
	}
	b.Run("sharded/n=10k", sharded(sfCoreFactory(16, 6), 10_000, faults.Delay{}))
	b.Run("sharded/n=100k", sharded(sfCoreFactory(16, 6), 100_000, faults.Delay{}))
	b.Run("sharded/n=1M", func(b *testing.B) {
		if testing.Short() {
			b.Skip("1M-node round skipped under -short")
		}
		sharded(sfCoreFactory(16, 6), 1_000_000, faults.Delay{})(b)
	})
	for _, p := range benchProtocols() {
		b.Run("sharded/"+p.name+"/n=10k", sharded(p.factory, 10_000, faults.Delay{}))
		b.Run("sharded/"+p.name+"/n=100k", sharded(p.factory, 100_000, faults.Delay{}))
		// The delay rows: jitter 0..2 parks two thirds of the messages in
		// the router's delay calendar, for the busiest protocol that never
		// replies and for one whose drained requests are answered.
		if p.name == "pushpull" || p.name == "shuffle" {
			b.Run("sharded/"+p.name+"-delay/n=10k", sharded(p.factory, 10_000, faults.Delay{Jitter: 2}))
		}
	}
}

// BenchmarkGlobalChainBuild measures exact state-space enumeration of the
// n=3 lossy global chain.
func BenchmarkGlobalChainBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := globalmc.Build(globalmc.Params{N: 3, S: 6, DL: 2, Loss: 0.1}, globalmc.Circulant(3, 2)); err != nil {
			b.Fatal(err)
		}
	}
}
