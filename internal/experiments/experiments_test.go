package experiments

import (
	"os"
	"strconv"
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tab := Table{Title: "T", Columns: []string{"a", "bb"}}
	tab.AddRow("1", "2")
	tab.AddRow("333", "4")
	out := tab.String()
	if !strings.Contains(out, "T\n") || !strings.Contains(out, "333") {
		t.Errorf("rendered table missing content:\n%s", out)
	}
	rep := &Report{ID: "x", Title: "y", Params: "p", Tables: []Table{tab}, Notes: []string{"n1"}}
	if s := rep.String(); !strings.Contains(s, "=== x: y ===") || !strings.Contains(s, "note: n1") {
		t.Errorf("rendered report missing content:\n%s", s)
	}
}

func TestFormatters(t *testing.T) {
	if f(1.23456) != "1.235" {
		t.Errorf("f = %q", f(1.23456))
	}
	if f2(1.005) == "" || f4(0.12345) != "0.1235" {
		t.Error("fixed formatters broken")
	}
	if d(42) != "42" {
		t.Errorf("d = %q", d(42))
	}
	if pm(1.23, 0.456) != "1.2 ± 0.5" {
		t.Errorf("pm = %q", pm(1.23, 0.456))
	}
}

func TestFig61Small(t *testing.T) {
	p := fig61Defaults()
	p.S, p.Stride, p.SimN, p.SimRounds = 24, 4, 200, 100
	r, err := Fig61(p, "")
	if err != nil {
		t.Fatal(err)
	}
	if r.ID != "fig6.1" || len(r.Tables) != 3 {
		t.Fatalf("report shape: id=%q tables=%d", r.ID, len(r.Tables))
	}
	// The moments table must show means near dm/3 = 8.
	moments := r.Tables[2]
	foundMarkov := false
	for _, row := range moments.Rows {
		if row[0] == "out markov" {
			foundMarkov = true
			mean, err := strconv.ParseFloat(row[1], 64)
			if err != nil || mean < 7.5 || mean > 8.5 {
				t.Errorf("markov mean out = %q, want ~8", row[1])
			}
		}
	}
	if !foundMarkov {
		t.Error("moments table missing markov row")
	}
}

func TestFig62(t *testing.T) {
	r, err := Fig62(fig62Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Tables) != 2 {
		t.Fatalf("tables = %d, want 2", len(r.Tables))
	}
	structure := r.Tables[0]
	want := map[string]string{
		"isolated state (0,0) in space": "false",
		"chain irreducible":             "true",
		"chain ergodic":                 "true",
	}
	for _, row := range structure.Rows {
		if expect, ok := want[row[0]]; ok && row[1] != expect {
			t.Errorf("%s = %s, want %s", row[0], row[1], expect)
		}
	}
	if len(r.Tables[1].Rows) == 0 {
		t.Error("no example transitions listed")
	}
}

func TestTab63SmallScale(t *testing.T) {
	// Scaled-down rule: dHat=10, delta=0.01 — just verify structure and
	// bracketing (dL < dHat < s).
	r, err := Tab63(Tab63Params{DHat: 10, Delta: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	tab := r.Tables[0]
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(tab.Rows))
	}
	for _, row := range tab.Rows[1:] { // skip the paper row
		dl, err1 := strconv.Atoi(row[1])
		s, err2 := strconv.Atoi(row[2])
		if err1 != nil || err2 != nil {
			t.Fatalf("unparseable row %v", row)
		}
		if !(dl < 10 && 10 < s) {
			t.Errorf("%s thresholds (%d, %d) do not bracket dHat=10", row[0], dl, s)
		}
		if dl%2 != 0 || s%2 != 0 {
			t.Errorf("%s thresholds (%d, %d) not even", row[0], dl, s)
		}
	}
}

func TestFig63Small(t *testing.T) {
	p := fig63Defaults()
	p.S, p.DL, p.LossRates = 16, 6, []float64{0, 0.05}
	p.SimN, p.SimRounds = 200, 100
	r, err := Fig63(p, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Tables) != 3 {
		t.Fatalf("tables = %d, want 3", len(r.Tables))
	}
	moments := r.Tables[0]
	if len(moments.Rows) != 2 {
		t.Fatalf("moment rows = %d, want 2", len(moments.Rows))
	}
	// Outdegree decreases with loss (Lemma 6.4): compare the "outdegree"
	// column's means.
	parseMean := func(cell string) float64 {
		v, err := strconv.ParseFloat(strings.Fields(cell)[0], 64)
		if err != nil {
			t.Fatalf("unparseable mean %q", cell)
		}
		return v
	}
	if m0, m5 := parseMean(moments.Rows[0][2]), parseMean(moments.Rows[1][2]); m0 <= m5 {
		t.Errorf("outdegree did not decrease with loss: %v <= %v", m0, m5)
	}
}

func TestFig64Small(t *testing.T) {
	p := fig64Defaults()
	p.N, p.S, p.DL, p.LossRates = 80, 12, 4, []float64{0, 0.05}
	p.Rounds, p.Leavers, p.Checkpoint, p.Seed = 100, 2, 25, 1
	r, err := Fig64(p, "")
	if err != nil {
		t.Fatal(err)
	}
	tab := r.Tables[0]
	if len(tab.Columns) != 5 {
		t.Fatalf("columns = %v", tab.Columns)
	}
	// First row is round 0: bound and sim both 1.
	first := tab.Rows[0]
	if first[1] != "1.0000" || first[2] != "1.0000" {
		t.Errorf("round-0 row = %v", first)
	}
	// Simulation must decay below the bound by the last checkpoint.
	last := tab.Rows[len(tab.Rows)-1]
	bound, _ := strconv.ParseFloat(last[1], 64)
	sim, _ := strconv.ParseFloat(last[2], 64)
	if sim > bound+0.1 {
		t.Errorf("simulated survival %v far above bound %v", sim, bound)
	}
}

func TestCor614Small(t *testing.T) {
	r, err := Cor614(Cor614Params{N: 100, S: 12, DL: 6, Joiners: 2, Seed: 2}, "")
	if err != nil {
		t.Fatal(err)
	}
	tab := r.Tables[0]
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		got, err := strconv.Atoi(row[3])
		if err != nil {
			t.Fatalf("unparseable indegree %q", row[3])
		}
		if got == 0 {
			t.Errorf("joiner %s acquired no in-neighbors", row[0])
		}
	}
}

func TestLem66Small(t *testing.T) {
	p := lem66Defaults()
	p.N, p.S, p.DL, p.Losses = 120, 16, 6, []float64{0, 0.05}
	p.Rounds, p.Seed = 150, 3
	r, err := Lem66(p, "")
	if err != nil {
		t.Fatal(err)
	}
	tab := r.Tables[0]
	for _, row := range tab.Rows {
		gap, err := strconv.ParseFloat(row[4], 64)
		if err != nil {
			t.Fatalf("unparseable gap %q", row[4])
		}
		if gap > 0.03 || gap < -0.03 {
			t.Errorf("loss %s: dup - (l+del) = %v, want ~0 (Lemma 6.6)", row[0], gap)
		}
	}
}

func TestLem76Small(t *testing.T) {
	// SampleEvery must exceed the ~s^2/d-round entry lifetime or the
	// chi-square cells correlate; 48 rounds is ~2.7 lifetimes here.
	r, err := Lem76(Lem76Params{N: 60, S: 12, DL: 4, Samples: 150, SampleEvery: 48, Seed: 4}, "")
	if err != nil {
		t.Fatal(err)
	}
	tab := r.Tables[0]
	rejected := 0
	for _, row := range tab.Rows {
		if row[5] == "true" {
			rejected++
		}
	}
	// At the 1% level, occasional rejection can happen by chance with
	// correlated samples; all three observers rejecting means failure.
	if rejected == len(tab.Rows) {
		t.Errorf("uniformity rejected for all observers:\n%s", tab.String())
	}
}

func TestLem79Small(t *testing.T) {
	p := lem79Defaults()
	p.N, p.S, p.DL, p.Losses = 150, 16, 6, []float64{0, 0.05}
	p.Rounds, p.Seed = 150, 1
	r, err := Lem79(p, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Tables[0].Rows {
		if row[len(row)-1] != "true" {
			t.Errorf("alpha bound violated at loss %s:\n%s", row[0], r.Tables[0].String())
		}
	}
}

func TestTab74(t *testing.T) {
	r, err := Tab74(tab74Defaults())
	if err != nil {
		t.Fatal(err)
	}
	tab := r.Tables[0]
	// Find the paper's cell: rate 0.010, eps=1e-30 -> 26.
	found := false
	for _, row := range tab.Rows {
		if row[0] == "0.010" && row[len(row)-1] == "26" {
			found = true
		}
	}
	if !found {
		t.Errorf("paper cell (1%%, 1e-30) -> 26 not reproduced:\n%s", tab.String())
	}
}

func TestLem715Small(t *testing.T) {
	p := lem715Defaults()
	p.Ns, p.S, p.DL, p.MaxRounds, p.Seed = []int{60, 120}, 12, 4, 300, 6
	r, err := Lem715(p, "")
	if err != nil {
		t.Fatal(err)
	}
	tab := r.Tables[0]
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		forget, err := strconv.Atoi(row[2])
		if err != nil || forget <= 0 {
			t.Errorf("invalid forget rounds %q", row[2])
		}
	}
}

func TestBaselinesSmall(t *testing.T) {
	r, err := Baselines(BaselinesParams{N: 150, S: 12, DL: 4, Loss: 0.1, Rounds: 200, Checkpoint: 50, Seed: 7}, "")
	if err != nil {
		t.Fatal(err)
	}
	edges := r.Tables[0]
	first := edges.Rows[0]
	last := edges.Rows[len(edges.Rows)-1]
	parse := func(s string) float64 {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("unparseable %q", s)
		}
		return v
	}
	// Column order: round, send&forget, shuffle, flipper, push-pull.
	sfStart, sfEnd := parse(first[1]), parse(last[1])
	shStart, shEnd := parse(first[2]), parse(last[2])
	flStart, flEnd := parse(first[3]), parse(last[3])
	ppStart, ppEnd := parse(first[4]), parse(last[4])
	if shEnd > shStart/2 {
		t.Errorf("shuffle did not decay under loss: %v -> %v", shStart, shEnd)
	}
	if flEnd > flStart/2 {
		t.Errorf("flipper did not decay under loss: %v -> %v", flStart, flEnd)
	}
	if sfEnd < sfStart/2 {
		t.Errorf("S&F collapsed under loss: %v -> %v", sfStart, sfEnd)
	}
	if ppEnd < ppStart {
		t.Errorf("push-pull lost ids: %v -> %v", ppStart, ppEnd)
	}
}

func TestAblationBurstSmall(t *testing.T) {
	r, err := AblationBurst(AblationBurstParams{N: 120, S: 16, DL: 6, Rate: 0.05, BurstLens: []float64{1, 10}, Rounds: 150, Seed: 8}, "")
	if err != nil {
		t.Fatal(err)
	}
	tab := r.Tables[0]
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d, want 2 (uniform + bursty(10))", len(tab.Rows))
	}
	// Mean outdegree under bursty loss stays within 20% of uniform.
	parse := func(s string) float64 {
		v, _ := strconv.ParseFloat(s, 64)
		return v
	}
	u, b := parse(tab.Rows[0][3]), parse(tab.Rows[1][3])
	if u == 0 || b == 0 || b < 0.8*u || b > 1.2*u {
		t.Errorf("bursty mean out %v far from uniform %v", b, u)
	}
}

func TestAblationDLSmall(t *testing.T) {
	r, err := AblationDL(AblationDLParams{N: 120, S: 16, Loss: 0.1, DLs: []int{0, 6, 10}, Rounds: 300, Seed: 9}, "")
	if err != nil {
		t.Fatal(err)
	}
	tab := r.Tables[0]
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(tab.Rows))
	}
	parse := func(s string) float64 {
		v, _ := strconv.ParseFloat(s, 64)
		return v
	}
	// dL=0 decays; dL=6 holds its population.
	if e0, e6 := parse(tab.Rows[0][1]), parse(tab.Rows[1][1]); e0 >= e6/2 {
		t.Errorf("dL=0 edges/node %v did not decay vs dL=6 %v", e0, e6)
	}
}

func TestRegistry(t *testing.T) {
	ids := IDs()
	if len(ids) != 21 {
		t.Fatalf("registry has %d ids, want 21: %v", len(ids), ids)
	}
	if _, err := Run("no-such-id", ""); err == nil {
		t.Error("Run accepted unknown id")
	}
	// Run the two cheapest registry entries end to end.
	for _, id := range []string{"fig6.2", "tab7.4"} {
		r, err := Run(id, "")
		if err != nil {
			t.Fatalf("Run(%s): %v", id, err)
		}
		if r.ID != id {
			t.Errorf("Run(%s) returned report id %q", id, r.ID)
		}
	}
}

func TestLem75Small(t *testing.T) {
	r, err := Lem75(Lem75Params{N: 3, S: 6, DL: 2, Loss: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Tables) != 4 {
		t.Fatalf("tables = %d, want 4", len(r.Tables))
	}
	lossy := r.Tables[2]
	for _, row := range lossy.Rows {
		switch row[0] {
		case "strongly connected (Lemma 7.1)", "ergodic (Lemma 7.2)":
			if row[1] != "true" {
				t.Errorf("%s = %s, want true", row[0], row[1])
			}
		}
	}
	// Edge probabilities table: off-diagonal cells of each row must agree.
	et := r.Tables[3]
	for _, row := range et.Rows {
		var vals []string
		for i, cell := range row[1:] {
			if i+1 == len(row)-1 && false {
				continue
			}
			if len(cell) > 6 && cell[:6] == "(self)" {
				continue
			}
			vals = append(vals, cell)
		}
		for i := 1; i < len(vals); i++ {
			if vals[i] != vals[0] {
				t.Errorf("edge probabilities differ in row %v", row)
			}
		}
	}
}

func TestAblationOptSmall(t *testing.T) {
	r, err := AblationOpt(AblationOptParams{N: 120, S: 12, DL: 4, Loss: 0.05, Rounds: 150, Seed: 10}, "")
	if err != nil {
		t.Fatal(err)
	}
	tab := r.Tables[0]
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d, want 5 variants", len(tab.Rows))
	}
	parse := func(s string) float64 {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("unparseable %q", s)
		}
		return v
	}
	// batch-4 moves more ids per send than baseline.
	var base, batch float64
	for _, row := range tab.Rows {
		switch row[0] {
		case "baseline":
			base = parse(row[5])
		case "batch-4":
			batch = parse(row[5])
		}
	}
	if batch <= base {
		t.Errorf("batch-4 ids/send %v <= baseline %v", batch, base)
	}
	// replace-when-full has zero deletions.
	for _, row := range tab.Rows {
		if row[0] == "replace-when-full" && row[8] != "0" {
			t.Errorf("replace-when-full deleted %s ids", row[8])
		}
	}
}

func TestAblationNonuniformSmall(t *testing.T) {
	r, err := AblationNonuniform(AblationNonuniformParams{N: 150, S: 12, DL: 4, LossyRate: 0.3, Rounds: 200, Seed: 11}, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Tables) != 2 {
		t.Fatalf("tables = %d, want 2", len(r.Tables))
	}
	groups := r.Tables[0]
	parse := func(s string) float64 {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("unparseable %q", s)
		}
		return v
	}
	lossyOut := parse(groups.Rows[0][1])
	cleanOut := parse(groups.Rows[1][1])
	if lossyOut >= cleanOut {
		t.Errorf("lossy-inbound group outdegree %v not below clean %v", lossyOut, cleanOut)
	}
	// Connectivity must survive.
	for _, row := range r.Tables[1].Rows {
		if row[0] == "components" && row[1] != "1" {
			t.Errorf("overlay fragmented under nonuniform loss: %s components", row[1])
		}
	}
}

func TestChurn1Small(t *testing.T) {
	r, err := Churn1(ChurnParams{N: 100, S: 12, DL: 4, Loss: 0.02, Rates: []float64{0, 0.3}, Rounds: 150, Seed: 12}, "")
	if err != nil {
		t.Fatal(err)
	}
	tab := r.Tables[0]
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(tab.Rows))
	}
	// Zero-rate row: no events, fully live, one component.
	zero := tab.Rows[0]
	if zero[1] != "0" || zero[2] != "0" || zero[3] != "100" {
		t.Errorf("zero-churn row = %v", zero)
	}
	// Churned row: events fired and the live overlay held together.
	churned := tab.Rows[1]
	if churned[1] == "0" || churned[2] == "0" {
		t.Errorf("churn did not fire: %v", churned)
	}
	comps, err := strconv.Atoi(churned[4])
	if err != nil || comps > 3 {
		t.Errorf("max live components = %v", churned[4])
	}
}

func TestTableCSV(t *testing.T) {
	tab := Table{Title: "My Table", Columns: []string{"a", "b"}}
	tab.AddRow("1", "x,y")
	got, err := tab.CSV()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(got, "a,b\n") || !strings.Contains(got, `"x,y"`) {
		t.Errorf("CSV = %q", got)
	}
}

func TestReportWriteCSV(t *testing.T) {
	dir := t.TempDir()
	tab := Table{Title: "Edges per node", Columns: []string{"round", "v"}}
	tab.AddRow("0", "1.5")
	rep := &Report{ID: "fig6.3", Tables: []Table{tab, {Title: "", Columns: []string{"x"}}}}
	if err := rep.WriteCSV(dir); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("wrote %d files, want 2", len(entries))
	}
	for _, e := range entries {
		if !strings.HasPrefix(e.Name(), "fig6-3_") || !strings.HasSuffix(e.Name(), ".csv") {
			t.Errorf("unexpected file name %q", e.Name())
		}
	}
}

func TestSlug(t *testing.T) {
	tests := []struct{ in, want string }{
		{"fig6.3", "fig6-3"},
		{"Edges per node over time", "edges-per-node-over-time"},
		{"", "table"},
		{"###", "table"},
	}
	for _, tt := range tests {
		if got := slug(tt.in); got != tt.want {
			t.Errorf("slug(%q) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestLem78Small(t *testing.T) {
	r, err := Lem78(Lem78Params{N: 150, S: 12, DL: 4, Loss: 0.05, Rounds: 300, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	tab := r.Tables[0]
	vals := map[string]string{}
	for _, row := range tab.Rows {
		vals[row[0]] = row[1]
	}
	retAll, err := strconv.ParseFloat(vals["return probability (all created)"], 64)
	if err != nil {
		t.Fatalf("unparseable return probability %q", vals["return probability (all created)"])
	}
	if retAll > 0.5 {
		t.Errorf("return probability %v exceeds the Lemma 7.8 bound 0.5", retAll)
	}
	beta, err := strconv.ParseFloat(vals["self-edge fraction (beta)"], 64)
	if err != nil {
		t.Fatal(err)
	}
	if beta > 1.0/6.0 {
		t.Errorf("beta %v exceeds the Lemma 7.9 allowance 1/6", beta)
	}
	created, _ := strconv.Atoi(vals["dependent instances created"])
	if created < 100 {
		t.Errorf("too few duplications (%d) for a meaningful estimate", created)
	}
}

func TestRW1Small(t *testing.T) {
	r, err := RW1(RW1Params{N: 120, S: 12, DL: 4, Loss: 0.1, WalkLengths: []int{2, 8}, Trials: 5000, Seed: 14}, "")
	if err != nil {
		t.Fatal(err)
	}
	tab := r.Tables[0]
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(tab.Rows))
	}
	parse := func(s string) float64 {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("unparseable %q", s)
		}
		return v
	}
	for _, row := range tab.Rows {
		rate, theory := parse(row[1]), parse(row[2])
		// Empirical success rate tracks (1-l)^k within sampling noise.
		if rate < theory-0.03 || rate > theory+0.03 {
			t.Errorf("k=%s: rate %v vs theory %v", row[0], rate, theory)
		}
	}
	// Exponential decay: k=8 rate well below k=2 rate.
	if r2, r8 := parse(tab.Rows[0][1]), parse(tab.Rows[1][1]); r8 >= r2 {
		t.Errorf("success rate did not decay with walk length: %v -> %v", r2, r8)
	}
}

func TestLossStressSmall(t *testing.T) {
	p := lossStressDefaults()
	p.N, p.S, p.DL, p.InitDegree = 40, 12, 4, 6
	p.Rounds, p.LeaveAt, p.FaultAt, p.HealAt = 60, 15, 20, 40
	p.Rate, p.Seed = 0.05, 9
	r, err := LossStress(p, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Tables) != 2 {
		t.Fatalf("tables = %d, want traffic + overlay", len(r.Tables))
	}
	traffic := r.Tables[0]
	if len(traffic.Rows) != 5 {
		t.Fatalf("scenarios = %d, want 5", len(traffic.Rows))
	}
	byName := map[string][]string{}
	for _, row := range traffic.Rows {
		byName[row[0]] = row
	}
	if row := byName["partition-heal"]; row[4] == "0" {
		t.Error("partition scenario counted no partition drops")
	}
	if row := byName["delay-jitter"]; row[5] == "0" {
		t.Error("delay scenario delayed nothing")
	}
	if row := byName["uniform"]; row[4] != "0" || row[5] != "0" {
		t.Errorf("uniform scenario has fault-specific drops: %v", row)
	}
	// Determinism: same params, identical rendered report.
	r2, err := LossStress(p, "")
	if err != nil {
		t.Fatal(err)
	}
	for i := range r.Tables {
		if r.Tables[i].String() != r2.Tables[i].String() {
			t.Errorf("table %d not deterministic:\n%s\nvs\n%s", i, r.Tables[i].String(), r2.Tables[i].String())
		}
	}
}

// TestZeroMeansZero holds the runners to the parameters they are given: a
// zero loss rate, a zero dL and a zero simulation size are the paper's own
// baselines, not requests for a default.
func TestZeroMeansZero(t *testing.T) {
	lem78 := lem78Defaults()
	lem78.N, lem78.S, lem78.DL, lem78.Loss, lem78.Rounds = 60, 12, 4, 0, 100
	lem75 := lem75Defaults()
	lem75.DL = 0
	fig63 := fig63Defaults()
	fig63.S, fig63.DL, fig63.LossRates = 12, 4, []float64{0, 0.05}
	fig63.SimN, fig63.SimRounds = 0, 20
	simColumns := func(r *Report) string {
		var cells []string
		for _, row := range r.Tables[0].Rows {
			cells = append(cells, row[3], row[4])
		}
		return strings.Join(cells, " ")
	}
	params := func(r *Report) string { return r.Params }
	for _, tc := range []struct {
		name string
		run  func() (*Report, error)
		got  func(*Report) string
		want string
	}{
		{"lem7.8 loss 0", func() (*Report, error) { return Lem78(lem78) }, params, " l=0 "},
		{"lem7.5 dL 0", func() (*Report, error) { return Lem75(lem75) }, params, " dL(lossy)=0 "},
		{"fig6.3 simN 0", func() (*Report, error) { return Fig63(fig63, "") }, simColumns, "- - - -"},
	} {
		r, err := tc.run()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := tc.got(r); !strings.Contains(got, tc.want) {
			t.Errorf("%s: got %q, want it to contain %q", tc.name, got, tc.want)
		}
	}
}

// TestZeroStepRejected: a table stride or checkpoint that is not positive
// would loop forever (fig6.1, fig6.3, fig6.4) or divide by zero (base1), so
// the runners refuse it.
func TestZeroStepRejected(t *testing.T) {
	for _, step := range []int{0, -1} {
		fig61 := fig61Defaults()
		fig61.S, fig61.SimN, fig61.Stride = 12, 0, step
		fig63 := fig63Defaults()
		fig63.S, fig63.DL, fig63.LossRates, fig63.SimN, fig63.Stride = 12, 4, []float64{0}, 0, step
		fig64 := fig64Defaults()
		fig64.N, fig64.S, fig64.DL, fig64.LossRates = 40, 12, 4, []float64{0}
		fig64.Rounds, fig64.Leavers, fig64.Checkpoint = 20, 1, step
		base := baselinesDefaults()
		base.N, base.S, base.DL, base.Rounds, base.Checkpoint = 40, 12, 4, 20, step
		for name, run := range map[string]func() (*Report, error){
			"fig6.1 stride":     func() (*Report, error) { return Fig61(fig61, "") },
			"fig6.3 stride":     func() (*Report, error) { return Fig63(fig63, "") },
			"fig6.4 checkpoint": func() (*Report, error) { return Fig64(fig64, "") },
			"base1 checkpoint":  func() (*Report, error) { return Baselines(base, "") },
		} {
			if _, err := run(); err == nil {
				t.Errorf("%s %d: no error", name, step)
			}
		}
	}
	// fig6.4's half-life note reads the first loss rate.
	fig64 := fig64Defaults()
	fig64.LossRates = nil
	if _, err := Fig64(fig64, ""); err == nil {
		t.Error("fig6.4 without loss rates: no error")
	}
}
