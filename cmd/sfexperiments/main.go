// Command sfexperiments regenerates the paper's tables and figures.
//
// Usage:
//
//	sfexperiments -list
//	sfexperiments -run fig6.3
//	sfexperiments -all
//	sfexperiments -all -parallel 4
//	sfexperiments -engine sharded -run lem6.6,fig6.3
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"sendforget/internal/experiments"
	sfruntime "sendforget/internal/runtime"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// outcome is one experiment's finished result, carried from its worker to
// the ordered printer.
type outcome struct {
	report  *experiments.Report
	err     error
	elapsed time.Duration
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sfexperiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list experiment ids and exit")
	all := fs.Bool("all", false, "run every experiment")
	ids := fs.String("run", "", "comma-separated experiment ids to run")
	csvDir := fs.String("csv", "", "also write each result table as CSV into this directory")
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0), "number of experiments to run concurrently")
	engine := fs.String("engine", "",
		"execution backend: seq, cluster, or sharded (default: each experiment's own, seq for the simulations and cluster for loss-stress)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var kind sfruntime.EngineKind
	if *engine != "" {
		var err error
		if kind, err = sfruntime.ParseEngine(*engine); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	}
	if *list {
		for _, id := range experiments.IDs() {
			fmt.Fprintln(stdout, id)
		}
		return 0
	}
	var toRun []string
	switch {
	case *all:
		toRun = experiments.IDs()
	case *ids != "":
		for _, id := range strings.Split(*ids, ",") {
			if id = strings.TrimSpace(id); id != "" {
				toRun = append(toRun, id)
			}
		}
	default:
		fmt.Fprintln(stderr, "nothing to do: pass -list, -all, or -run id[,id...]")
		return 2
	}
	workers := *parallel
	if workers < 1 {
		workers = 1
	}
	if workers > len(toRun) {
		workers = len(toRun)
	}

	// Experiments run on a bounded worker pool; the printer drains the
	// channels in input order, so stdout is identical for every worker
	// count. Each experiment is internally deterministic (fixed seeds), so
	// the concurrency changes only the wall clock. Timing lines go to
	// stderr: they are scheduler-dependent by nature.
	done := make([]chan outcome, len(toRun))
	for i := range done {
		done[i] = make(chan outcome, 1)
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, id := range toRun {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			start := time.Now() //lint:allow detrand wall-clock progress timing, reported to stderr only
			report, err := experiments.Run(id, kind)
			//lint:allow detrand elapsed wall time never feeds protocol state
			done[i] <- outcome{report: report, err: err, elapsed: time.Since(start)}
		}(i, id)
	}

	failed := 0
	for i, id := range toRun {
		oc := <-done[i]
		if oc.err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", id, oc.err)
			failed++
			continue
		}
		fmt.Fprintln(stdout, oc.report)
		if *csvDir != "" {
			if err := oc.report.WriteCSV(*csvDir); err != nil {
				fmt.Fprintf(stderr, "%s: %v\n", id, err)
				failed++
				continue
			}
		}
		fmt.Fprintf(stderr, "(%s completed in %.1fs)\n", id, oc.elapsed.Seconds())
	}
	wg.Wait()
	if failed > 0 {
		return 1
	}
	return 0
}
