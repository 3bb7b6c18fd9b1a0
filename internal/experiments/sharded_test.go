package experiments

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"sendforget/internal/runtime"
)

// TestPaperOraclesOnSharded runs two paper oracles through the sharded
// engine: every Lemma 6.6 row must report dup in [l, l+delta], and the
// Figure 6.3 simulated mean indegrees must sit inside the paper's reported
// 28±3.4, 27±3.6, 24±4.1, 23±4.3 at l = 0, 0.01, 0.05, 0.1.
func TestPaperOraclesOnSharded(t *testing.T) {
	lem, err := Lem66(Lem66Params{N: 400, S: 16, DL: 6, Rounds: 200, Seed: 3}, runtime.EngineSharded)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range lem.Tables[0].Rows {
		if row[5] != "true" {
			t.Errorf("lem6.6 on sharded, loss %s: dup %s outside [l, l+delta]: %v", row[0], row[1], row)
		}
	}

	fig, err := Fig63(Fig63Params{SimN: 1000, SimRounds: 300}, runtime.EngineSharded)
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

// TestSeqOnlyExperimentsRejectOtherEngines holds the four experiments that
// read per-node core state to an error, not a panic, on the engines that do
// not expose it.
func TestSeqOnlyExperimentsRejectOtherEngines(t *testing.T) {
	for _, id := range []string{"lem7.9", "abl1", "abl2", "abl3"} {
		for _, kind := range []runtime.EngineKind{runtime.EngineCluster, runtime.EngineSharded} {
			_, err := Run(id, kind)
			if err == nil || !strings.Contains(err.Error(), "runs only on the seq engine") {
				t.Errorf("%s on %s: err %v, want the seq-only error", id, kind, err)
			}
		}
	}
}
