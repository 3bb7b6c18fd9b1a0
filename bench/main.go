// Command bench is the repository's one benchmark: four named workloads over
// the gossip message path, end-to-end metrics measured with tracing off, a
// traced run that prints per-layer metrics, the paper's oracle checked in the
// same command that prints the speed, and a compare tool. README.md in this
// directory says what each number means.
//
//	bash bench/run.sh -all                       every workload, each in its own process
//	bash bench/run.sh -workload NAME -seed K     one workload, fixed round count
//	bash bench/run.sh -workload NAME -trace 1    per-layer metrics and bench/out/trace-NAME.jsonl
//	bash bench/run.sh -compare old.json new.json
//
// The last line of a single-workload run is one JSON object with the keys
// correct, attempted, failed and metrics (BENCHMARK.json's contract).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// File is what -out writes: the runs of one invocation.
type File struct {
	Runs []*Result `json:"runs"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	all := fs.Bool("all", false, "run every workload, each in its own process")
	count := fs.Int("count", 1, "with -all: how many times to run each workload")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 0, "run whole segments for about this long instead of a fixed round count")
	rounds := fs.Int("rounds", 0, "timed rounds (0 = ten segments of the workload's segment length)")
	trace := fs.Int("trace", 0, "1: record spans, replay the layers, print per-layer metrics")
	smoke := fs.Bool("smoke", false, "tiny sizes (2000/1000/2000 nodes, 8 UDP nodes): seconds, not minutes")
	out := fs.String("out", "", "also write the full result (header, quartiles, checks, ledger) to this file")
	compare := fs.Bool("compare", false, "compare two -out files: bench -compare old.json new.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare old.json new.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	case *all:
		return runAll(*count, *seed, *seconds, *rounds, *trace, *smoke, *out, stdout, stderr)
	}
	def := workloadByName(*name)
	if def == nil {
		fmt.Fprintf(stderr, "bench: unknown workload %q (want one of %s, or -all)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	o := options{def: def, seed: *seed, seconds: *seconds, rounds: *rounds, smoke: *smoke, trace: *trace == 1, setups: 3, outDir: outDir()}
	res, err := def.run(o)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	printResult(stdout, res)
	if *out != "" {
		if err := writeFile(*out, &File{Runs: []*Result{res}}); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if err := printContractLine(stdout, res); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if !res.correct() {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return names
}

// outDir is where traces go: bench/out from the repository root, out from
// inside bench/.
func outDir() string {
	if st, err := os.Stat("bench"); err == nil && st.IsDir() {
		return filepath.Join("bench", "out")
	}
	return "out"
}

func writeFile(path string, f *File) error {
	b, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readFile(path string) (*File, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// declared returns the metric definitions a result of this kind carries.
func declared(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// printResult prints the header, every metric by name with its unit, the
// replay estimates and the checks.
func printResult(w io.Writer, r *Result) {
	h := r.Header
	fmt.Fprintf(w, "# workload %s  seed %d  nodes %d  warm-up rounds %d  timed rounds %d in %d segments  smoke %v  traced %v\n",
		r.Workload, r.Seed, r.Nodes, r.WarmRounds, r.Rounds, r.Segments, r.Smoke, r.Traced)
	fmt.Fprintf(w, "# commit %s  %s  GOMAXPROCS %d  nproc %d  cpu %q  kernel %s  started %s\n",
		h.Commit, h.GoVersion, h.GOMAXPROCS, h.NProc, h.CPU, h.Kernel, h.Start)
	for _, m := range declared(r.Traced) {
		s := r.Metrics[m.Name]
		fmt.Fprintf(w, "%-36s %16.6g %-6s", m.Name, s.Value, s.Unit)
		if s.N > 1 {
			fmt.Fprintf(w, "  q1 %.6g  q3 %.6g  n %d", s.Q1, s.Q3, s.N)
		}
		fmt.Fprintln(w)
	}
	if !r.Traced {
		h := r.HostSlowdown
		fmt.Fprintf(w, "%-36s %16.6g %-6s  q1 %.6g  q3 %.6g  n %d  (the rates above are wall-clock rates of the quiet rounds multiplied by this)\n", "host_slowdown", h.Value, h.Unit, h.Q1, h.Q3, h.N)
	}
	fmt.Fprintf(w, "%-36s %16.6g %-6s  %d failed of %d attempted\n", failedOpsShare, r.FailedOpsShare, "ratio", r.Failed, r.Attempted)
	shares := make([]string, 0, len(r.ReplayShare))
	for name := range r.ReplayShare {
		shares = append(shares, name)
	}
	sort.Strings(shares)
	for _, name := range shares {
		fmt.Fprintf(w, "replay estimate: %-34s x calls/round = %5.1f%% of round_ms_p50 (one thread)\n", name, 100*r.ReplayShare[name])
	}
	fmt.Fprintf(w, "ledger %+v\ncounters %+v\nstate_digest %s\n", r.Ledger, r.Counters, r.StateDigest)
	for _, c := range r.Checks {
		verdict := "ok  "
		if !c.OK {
			verdict = "FAIL"
		}
		fmt.Fprintf(w, "check %s %s: %s\n", verdict, c.Name, c.Detail)
	}
	for _, n := range r.Notes {
		fmt.Fprintln(w, "note:", n)
	}
}

// printContractLine prints the result line BENCHMARK.json's driver reads.
func printContractLine(w io.Writer, r *Result) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.Attempted, r.Failed, make(map[string]value)}
	for name, s := range r.Metrics {
		line.Metrics[name] = value{s.Value, s.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// runAll runs every workload count times, each run in a process of its own
// (peak RSS and set-up time are per process), and gathers the results.
func runAll(count int, seed int64, seconds float64, rounds, trace int, smoke bool, out string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := os.MkdirAll(outDir(), 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(outDir(), "run-")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	var file File
	status := 0
	for i := 0; i < count; i++ {
		for _, w := range workloads {
			path := filepath.Join(tmp, "result.json")
			args := []string{"-workload", w.Name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
				"-rounds", fmt.Sprint(rounds), "-trace", fmt.Sprint(trace), "-out", path}
			if smoke {
				args = append(args, "-smoke")
			}
			cmd := exec.Command(exe, args...)
			cmd.Stdout, cmd.Stderr = stdout, stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", w.Name, err)
				status = 1
			}
			if f, err := readFile(path); err == nil {
				file.Runs = append(file.Runs, f.Runs...)
			}
			fmt.Fprintln(stdout)
		}
	}
	printOverhead(stdout, &file)
	if out != "" {
		if err := writeFile(out, &file); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	return status
}

// printOverhead reports what management and observability cost: the
// throughput of the scraped daemon against the bare engine on the same
// substrate configuration.
func printOverhead(w io.Writer, f *File) {
	median := func(workload string) float64 {
		var v []float64
		for _, r := range f.Runs {
			if r.Workload == workload && !r.Traced {
				v = append(v, r.Metrics["node_ticks_per_s"].Value)
			}
		}
		return percentile(v, 0.5)
	}
	daemon, bare := median("daemon-scrape-100k"), median("sharded-sf-100k")
	if daemon > 0 && bare > 0 {
		fmt.Fprintf(w, "management overhead: daemon-scrape-100k node_ticks_per_s %.4g / sharded-sf-100k %.4g = %.3f (base: sharded-sf-100k)\n",
			daemon, bare, daemon/bare)
	}
}
