package experiments

import (
	"math"
	gort "runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"sendforget/internal/runtime"
)

// TestPaperOraclesOnSharded runs two paper oracles through the sharded
// engine: every Lemma 6.6 row must report dup in [l, l+delta], and the
// Figure 6.3 simulated mean indegrees must sit inside the paper's reported
// 28±3.4, 27±3.6, 24±4.1, 23±4.3 at l = 0, 0.01, 0.05, 0.1.
func TestPaperOraclesOnSharded(t *testing.T) {
	lp := lem66Defaults()
	lp.N, lp.S, lp.DL, lp.Rounds, lp.Seed = 400, 16, 6, 200, 3
	lem, err := Lem66(lp, runtime.EngineSharded)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range lem.Tables[0].Rows {
		if row[5] != "true" {
			t.Errorf("lem6.6 on sharded, loss %s: dup %s outside [l, l+delta]: %v", row[0], row[1], row)
		}
	}

	fp := fig63Defaults()
	fp.SimN = 1000
	fig, err := Fig63(fp, runtime.EngineSharded)
	if err != nil {
		t.Fatal(err)
	}
	paper := []struct{ mean, std float64 }{{28, 3.4}, {27, 3.6}, {24, 4.1}, {23, 4.3}}
	rows := fig.Tables[0].Rows
	if len(rows) != len(paper) {
		t.Fatalf("fig6.3 rows = %d, want %d", len(rows), len(paper))
	}
	for i, row := range rows {
		// Columns: loss, MC in, MC out, sim in, ...
		in, err := strconv.ParseFloat(strings.Fields(row[3])[0], 64)
		if err != nil {
			t.Fatalf("unparseable mean %q", row[3])
		}
		if p := paper[i]; math.Abs(in-p.mean) > p.std {
			t.Errorf("fig6.3 on sharded, loss %s: simulated mean indegree %.1f outside the paper's %g±%g", row[0], in, p.mean, p.std)
		}
	}
}

// TestNodeStateExperimentsOnEveryEngine runs the four experiments that read
// per-node core state through Substrate.EachNode — lem7.9, abl1 and abl2
// (dependence tags) and abl3 (sfopt's tallies) — on the cluster and sharded
// engines. Every report must be complete, every alpha in (0, 1], and abl3's
// undeletion and replacement counts zero for the variants without those
// options. n = 600 puts three shards, and so a worker pool, under each
// sharded run: the goroutine count must come back to its baseline, which
// fails if an experiment leaves a substrate unclosed.
func TestNodeStateExperimentsOnEveryEngine(t *testing.T) {
	defer gort.GOMAXPROCS(max(2, gort.GOMAXPROCS(0)))
	gort.GOMAXPROCS(max(2, gort.GOMAXPROCS(0)))
	base := gort.NumGoroutine()
	const n = 600
	alpha := func(id string, row []string, col int) {
		if a, err := strconv.ParseFloat(row[col], 64); err != nil || a <= 0 || a > 1 {
			t.Errorf("%s row %v: alpha %q outside (0, 1]", id, row, row[col])
		}
	}
	for _, kind := range []runtime.EngineKind{runtime.EngineCluster, runtime.EngineSharded} {
		reports := map[string]func() (*Report, error){
			"lem7.9": func() (*Report, error) {
				p := lem79Defaults()
				p.N, p.S, p.DL, p.Losses, p.Rounds, p.Seed = n, 16, 6, []float64{0, 0.05}, 30, 1
				return Lem79(p, kind)
			},
			"abl1": func() (*Report, error) {
				return AblationBurst(AblationBurstParams{N: n, S: 16, DL: 6, Rate: 0.05, BurstLens: []float64{10}, Rounds: 60, Seed: 8}, kind)
			},
			"abl2": func() (*Report, error) {
				return AblationDL(AblationDLParams{N: n, S: 16, Loss: 0.1, DLs: []int{0, 6, 10}, Rounds: 60, Seed: 9}, kind)
			},
			"abl3": func() (*Report, error) {
				return AblationOpt(AblationOptParams{N: n, S: 12, DL: 4, Loss: 0.05, Rounds: 60, Seed: 10}, kind)
			},
		}
		for _, id := range []string{"lem7.9", "abl1", "abl2", "abl3"} {
			r, err := reports[id]()
			if err != nil {
				t.Fatalf("%s on %s: %v", id, kind, err)
			}
			tab := r.Tables[0]
			if len(tab.Rows) == 0 {
				t.Errorf("%s on %s: no rows", id, kind)
			}
			for _, row := range tab.Rows {
				if len(row) != len(tab.Columns) || slices.Contains(row, "") {
					t.Errorf("%s on %s: incomplete row %v for columns %v", id, kind, row, tab.Columns)
					continue
				}
				switch id {
				case "lem7.9":
					alpha(id, row, 2)
					alpha(id, row, 3)
				case "abl1":
					alpha(id, row, 6)
				case "abl2":
					alpha(id, row, 4)
				case "abl3":
					// Columns: variant, ..., dup, undel, del, repl.
					if v := row[0]; row[7] != "0" && (v == "baseline" || v == "replace-when-full" || v == "batch-4") {
						t.Errorf("abl3 on %s: %s undeleted %s ids", kind, v, row[7])
					}
					if v := row[0]; row[9] != "0" && (v == "baseline" || v == "undelete" || v == "batch-4") {
						t.Errorf("abl3 on %s: %s replaced %s ids", kind, v, row[9])
					}
				}
			}
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for gort.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := gort.NumGoroutine(); got > base {
		t.Errorf("%d goroutines after the experiments, %d before: a substrate was not closed", got, base)
	}
}
