// Command sfsim runs a single membership simulation and prints the
// property metrics of Section 2.
//
// Example:
//
//	sfsim -protocol sf -n 500 -s 40 -dl 18 -loss 0.05 -rounds 300
package main

import (
	"flag"
	"fmt"
	"os"

	"sendforget/internal/graph"
	"sendforget/internal/peer"
	"sendforget/internal/protocol"
	"sendforget/internal/protocol/flipper"
	"sendforget/internal/protocol/pushpull"
	"sendforget/internal/protocol/sendforget"
	"sendforget/internal/protocol/shuffle"
	"sendforget/internal/runtime"
	"sendforget/internal/trace"
	"sendforget/internal/view"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("sfsim", flag.ContinueOnError)
	protoName := fs.String("protocol", "sf", "protocol: sf, shuffle, flipper, or pushpull")
	n := fs.Int("n", 500, "number of nodes")
	s := fs.Int("s", 40, "view size (even)")
	dl := fs.Int("dl", 18, "S&F duplication threshold (even)")
	initDeg := fs.Int("init", 0, "initial outdegree (0 = default)")
	lossRate := fs.Float64("loss", 0.01, "uniform message loss rate")
	rounds := fs.Int("rounds", 300, "rounds to run (n actions each)")
	seed := fs.Int64("seed", 1, "random seed")
	deps := fs.Bool("deps", true, "track dependence (S&F only)")
	traceFile := fs.String("trace", "", "write a JSONL action trace to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *rounds < 0 {
		fmt.Fprintf(os.Stderr, "sfsim: -rounds %d: the round count must not be negative\n", *rounds)
		return 2
	}

	var newCore protocol.CoreFactory
	switch *protoName {
	case "sf":
		if *initDeg == 0 {
			*initDeg = sendforget.DefaultInitDegree(*s, *dl, *n)
		}
		if *deps {
			newCore = func() (protocol.StepCore, error) { return sendforget.NewTrackedCore(*s, *dl) }
		} else {
			newCore = func() (protocol.StepCore, error) { return sendforget.NewCore(*s, *dl) }
		}
	case "shuffle":
		newCore = func() (protocol.StepCore, error) { return shuffle.NewCore(*s) }
	case "flipper":
		newCore = func() (protocol.StepCore, error) { return flipper.NewCore(*s) }
	case "pushpull":
		newCore = func() (protocol.StepCore, error) { return pushpull.NewCore(*s) }
	default:
		fmt.Fprintf(os.Stderr, "unknown protocol %q\n", *protoName)
		return 2
	}
	sub, err := runtime.New(runtime.Config{Engine: runtime.EngineSeq, N: *n, NewCore: newCore, InitDegree: *initDeg, Loss: *lossRate, Seed: *seed})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		defer f.Close()
		rec := trace.NewRecorder(f)
		rec.Attach(sub.(*runtime.Seq))
		defer func() {
			if err := rec.Flush(); err != nil {
				fmt.Fprintln(os.Stderr, "trace:", err)
			}
		}()
	}
	runtime.Run(sub, *rounds)
	printSummary(sub, *protoName == "sf", *deps)
	return 0
}

func printSummary(e runtime.Substrate, sf, deps bool) {
	q := graph.NewPass(e.N()).Universe(e.EachNode)
	c := e.Traffic()
	var name string // every node runs the same protocol
	e.EachNode(func(_ peer.ID, _ *view.View, core protocol.StepCore) { name = core.Name() })
	fmt.Printf("protocol        %s\n", name)
	fmt.Printf("steps           %d (sends %d, losses %d, deliveries %d)\n", e.Counters().Ticks, c.Sends, c.Losses, c.Deliveries)
	fmt.Printf("empirical loss  %.4f\n", c.LossRate())
	fmt.Printf("edges           %d (%.2f per node)\n", q.Edges, float64(q.Edges)/float64(q.Vertices))
	fmt.Printf("outdegree       %.2f (var %.2f)\n", q.MeanOut, q.VarOut)
	fmt.Printf("indegree        %.2f (var %.2f, min %d, max %d)\n", q.MeanIn, q.VarIn, q.MinIn, q.MaxIn)
	fmt.Printf("components      %d (weakly connected: %v)\n", q.Components, q.Connected())
	fmt.Printf("self-edges      %d, same-view duplicates %d (visible dependent fraction %.4f)\n",
		q.SelfEdges, q.Duplicates, q.DependentFraction())
	if !sf {
		return
	}
	if pc := e.Counters(); pc.Sends > 0 {
		fmt.Printf("dup prob        %.4f, deletion prob %.4f (Lemma 6.6: dup = loss + del)\n",
			float64(pc.Duplications)/float64(pc.Sends), float64(pc.DeletedIDs)/float64(2*pc.Sends))
	}
	var st sendforget.DependenceStats
	e.EachNode(st.Add)
	if deps && st.Entries > 0 {
		fmt.Printf("alpha           %.4f (independent entries, Lemma 7.9)\n", st.Alpha())
	}
}
