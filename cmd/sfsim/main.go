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

	"sendforget/internal/engine"
	"sendforget/internal/loss"
	"sendforget/internal/metrics"
	"sendforget/internal/protocol"
	"sendforget/internal/protocol/flipper"
	"sendforget/internal/protocol/pushpull"
	"sendforget/internal/protocol/sendforget"
	"sendforget/internal/protocol/shuffle"
	"sendforget/internal/rng"
	"sendforget/internal/trace"
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
	lm, err := loss.NewUniform(*lossRate)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	e, err := engine.New(newCore, *n, *initDeg, lm, rng.New(*seed))
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
		rec.Attach(e)
		defer func() {
			if err := rec.Flush(); err != nil {
				fmt.Fprintln(os.Stderr, "trace:", err)
			}
		}()
	}
	e.Run(*rounds)
	printSummary(e, *protoName == "sf", *deps)
	return 0
}

func printSummary(e *engine.Engine, sf, deps bool) {
	g := e.Snapshot()
	deg := metrics.Degrees(g, nil)
	c := e.Traffic()
	fmt.Printf("protocol        %s\n", e.Name())
	fmt.Printf("steps           %d (sends %d, losses %d, deliveries %d)\n", e.Tally().Ticks, c.Sends, c.Losses, c.Deliveries)
	fmt.Printf("empirical loss  %.4f\n", c.LossRate())
	fmt.Printf("edges           %d (%.2f per node)\n", g.NumEdges(), float64(g.NumEdges())/float64(e.N()))
	fmt.Printf("outdegree       %.2f (var %.2f)\n", deg.MeanOut, deg.VarOut)
	fmt.Printf("indegree        %.2f (var %.2f, min %d, max %d)\n", deg.MeanIn, deg.VarIn, deg.MinIn, deg.MaxIn)
	fmt.Printf("components      %d (weakly connected: %v)\n", g.ComponentCount(), g.WeaklyConnected())
	sd := metrics.MeasureSpatialDependence(g)
	fmt.Printf("self-edges      %d, same-view duplicates %d (visible dependent fraction %.4f)\n",
		sd.SelfEdges, sd.Duplicates, sd.DependentFraction())
	if !sf {
		return
	}
	if pc := e.Tally(); pc.Sends > 0 {
		fmt.Printf("dup prob        %.4f, deletion prob %.4f (Lemma 6.6: dup = loss + del)\n",
			float64(pc.Duplications)/float64(pc.Sends), float64(pc.DeletedIDs)/float64(2*pc.Sends))
	}
	if st := sendforget.MeasureDependence(e); deps && st.Entries > 0 {
		fmt.Printf("alpha           %.4f (independent entries, Lemma 7.9)\n", st.Alpha())
	}
}
