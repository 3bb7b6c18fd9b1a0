package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"sendforget/internal/graph"
	"sendforget/internal/metrics"
	"sendforget/internal/runtime"
	"sendforget/internal/view"
)

func smokeOptions(t *testing.T, name string) options {
	t.Helper()
	def := workloadByName(name)
	if def == nil {
		t.Fatalf("no workload %q", name)
	}
	return options{def: def, seed: 7, smoke: true, setups: 1, outDir: t.TempDir()}
}

func metricNames(defs []metricDef) []string {
	var names []string
	for _, d := range defs {
		names = append(names, d.Name)
	}
	sort.Strings(names)
	return names
}

func keysOf(m map[string]Stat) []string {
	var names []string
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// Every workload, at smoke size, untraced and traced: the run is correct and
// emits exactly the declared metrics, each with its declared unit.
func TestSmokeEmitsEveryDeclaredMetricOnce(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			o := smokeOptions(t, w.Name)
			o.trace = traced
			res, err := w.run(o)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			for _, c := range res.Checks {
				if !c.OK {
					t.Errorf("%s traced=%v: check %q failed: %s", w.Name, traced, c.Name, c.Detail)
				}
			}
			if !res.correct() || res.Attempted < 1 {
				t.Errorf("%s traced=%v: failed %d of %d", w.Name, traced, res.Failed, res.Attempted)
			}
			want := declared(traced)
			if got := keysOf(res.Metrics); strings.Join(got, " ") != strings.Join(metricNames(want), " ") {
				t.Errorf("%s traced=%v: emitted %v, declared %v", w.Name, traced, got, metricNames(want))
			}
			for _, d := range want {
				if s := res.Metrics[d.Name]; s.Unit != d.Unit {
					t.Errorf("%s: %s has unit %q, declared %q", w.Name, d.Name, s.Unit, d.Unit)
				}
			}
			if !traced {
				for _, d := range want {
					if res.Metrics[d.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, d.Name, res.Metrics[d.Name].Value)
					}
				}
				continue
			}
			if res.Metrics["trace.spans"].Value == 0 {
				t.Errorf("%s: traced run recorded no spans", w.Name)
			}
			if _, err := os.Stat(filepath.Join(o.outDir, "trace-"+w.Name+".jsonl")); err != nil {
				t.Errorf("%s: %v", w.Name, err)
			}
		}
	}
}

// The contract line is the last thing a run prints and carries exactly the
// four keys the driver reads.
func TestContractLine(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "udp-loopback-64", "--seed", "3", "--seconds", "0.2", "--trace", "0", "-smoke"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, lines[len(lines)-1])
	}
	if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
		t.Errorf("contract line has keys %v", line)
	}
	var ms map[string]struct {
		Value float64
		Unit  string
	}
	if err := json.Unmarshal(line["metrics"], &ms); err != nil || len(ms) != len(endToEnd) {
		t.Errorf("metrics = %v (%v), want the %d end-to-end metrics", ms, err, len(endToEnd))
	}
	if code := run([]string{"-workload", "no-such"}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown workload: exit %d, want 2", code)
	}
}

// BENCHMARK.json is the declaration the driver reads; the catalog in this
// package is what the program emits. They must say the same thing.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Paths     []string `json:"paths"`
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Paths) != 1 || decl.Paths[0] != "bench" {
		t.Errorf("paths = %v", decl.Paths)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in the catalog", len(decl.Workloads), len(workloads))
	}
	for i, w := range decl.Workloads {
		if w.Name != workloads[i].Name || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: declared %q (why: %d chars), catalog %q", i, w.Name, len(w.Why), workloads[i].Name)
		}
	}
	if len(decl.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d in the catalog", len(decl.EndToEnd), len(endToEnd))
	}
	for i, m := range decl.EndToEnd {
		if c := endToEnd[i]; m.Name != c.Name || m.Unit != c.Unit || m.Better != c.Better || m.Bound != c.Bound {
			t.Errorf("end-to-end %d: declared %+v, catalog %+v", i, m, c)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(decl.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, %d in the catalog", len(decl.PerLayer), len(perLayer))
	}
	for i, m := range decl.PerLayer {
		if c := perLayer[i]; m.Name != c.Name || m.Unit != c.Unit || m.Better != c.Better {
			t.Errorf("per-layer %d: declared %+v, catalog %+v", i, m, c)
		}
	}
}

// Results must not depend on the worker count: same digest, same ledger.
func TestStateDigestIndependentOfWorkers(t *testing.T) {
	for _, name := range []string{"sharded-sf-100k", "sharded-pushpull-faults-50k"} {
		var digests []string
		var ledgers []metrics.Traffic
		for _, workers := range []int{1, 4} {
			o := smokeOptions(t, name)
			o.workers = workers
			res, err := o.def.run(o)
			if err != nil {
				t.Fatal(err)
			}
			digests = append(digests, res.StateDigest)
			ledgers = append(ledgers, res.Ledger)
		}
		if digests[0] != digests[1] || ledgers[0] != ledgers[1] {
			t.Errorf("%s: workers 1 -> %s %+v, workers 4 -> %s %+v", name, digests[0], ledgers[0], digests[1], ledgers[1])
		}
	}
}

// planted is a substrate that lies in one chosen way, so that each
// correctness check can be shown to fail when the thing it guards is broken.
type planted struct {
	runtime.Substrate
	traffic   func(metrics.Traffic) metrics.Traffic
	counters  func(runtime.NodeCounters) runtime.NodeCounters
	views     func([]*view.View) []*view.View
	snapshot  func() *graph.Graph
	invariant error
}

func (p planted) Traffic() metrics.Traffic {
	if p.traffic != nil {
		return p.traffic(p.Substrate.Traffic())
	}
	return p.Substrate.Traffic()
}

func (p planted) Counters() runtime.NodeCounters {
	if p.counters != nil {
		return p.counters(p.Substrate.Counters())
	}
	return p.Substrate.Counters()
}

func (p planted) Views() []*view.View {
	if p.views != nil {
		return p.views(p.Substrate.Views())
	}
	return p.Substrate.Views()
}

func (p planted) Snapshot() *graph.Graph {
	if p.snapshot != nil {
		return p.snapshot()
	}
	return p.Substrate.Snapshot()
}

func (p planted) CheckInvariants() error {
	if p.invariant != nil {
		return p.invariant
	}
	return p.Substrate.CheckInvariants()
}

func emptied(views []*view.View) []*view.View {
	for _, v := range views {
		if v != nil {
			for i := 0; i < v.Size(); i++ {
				v.Clear(i)
			}
		}
	}
	return views
}

func TestEachCheckFailsOnItsPlantedFault(t *testing.T) {
	calls := 0
	cases := []struct {
		workload, check string
		plant           planted
	}{
		{"sharded-sf-100k", "ledger conserved after drain", planted{traffic: func(tr metrics.Traffic) metrics.Traffic {
			tr.Deliveries-- // one delivery dropped from the ledger
			return tr
		}}},
		{"sharded-sf-100k", "view invariants", planted{invariant: errors.New("planted")}},
		{"sharded-sf-100k", "mean outdegree within 0.5 of degree-MC", planted{views: func(vs []*view.View) []*view.View {
			for _, v := range vs {
				for i := 0; v != nil && i < v.Size() && v.Outdegree() > 20; i++ {
					v.Clear(i)
				}
			}
			return vs
		}}},
		{"sharded-sf-100k", "dup share inside Lemma 6.6/6.7 band", planted{counters: func(c runtime.NodeCounters) runtime.NodeCounters {
			c.Duplications += c.Sends / 10 // duplicating ten points more often than loss explains
			return c
		}}},
		{"sharded-sf-100k", "one weakly connected component", planted{snapshot: func() *graph.Graph { return graph.FromEdges(4, nil) }}},
		{"sharded-pushpull-faults-50k", "dead letters seen", planted{traffic: func(tr metrics.Traffic) metrics.Traffic {
			tr.Losses, tr.DeadLetters = tr.Losses+tr.DeadLetters, 0
			return tr
		}}},
		{"sharded-pushpull-faults-50k", "partition drops seen", planted{traffic: func(tr metrics.Traffic) metrics.Traffic {
			tr.PartitionDrops = 0
			return tr
		}}},
		{"sharded-pushpull-faults-50k", "delayed messages seen", planted{traffic: func(tr metrics.Traffic) metrics.Traffic {
			tr.Delayed = 0
			return tr
		}}},
		{"sharded-pushpull-faults-50k", "largest component >= 99% of live nodes", planted{views: emptied}},
		{"daemon-scrape-100k", "final scrape equals Traffic()", planted{traffic: func(tr metrics.Traffic) metrics.Traffic {
			calls++ // no two reads of the ledger agree
			tr.Sends += calls
			return tr
		}}},
	}
	for _, c := range cases {
		o := smokeOptions(t, c.workload)
		o.rounds = o.segRounds() // one segment is enough to reach every check
		plant := c.plant
		o.wrap = func(s runtime.Substrate) runtime.Substrate {
			plant.Substrate = s
			return plant
		}
		res, err := o.def.run(o)
		if err != nil {
			t.Fatalf("%s: %v", c.workload, err)
		}
		found := false
		for _, ch := range res.Checks {
			if ch.Name == c.check {
				found = true
				if ch.OK {
					t.Errorf("%s: check %q passed on its planted fault (%s)", c.workload, c.check, ch.Detail)
				}
			}
		}
		if !found {
			t.Errorf("%s: no check named %q ran", c.workload, c.check)
		}
		if res.correct() || res.FailedOpsShare == 0 {
			t.Errorf("%s / %s: run reported correct with %d failed", c.workload, c.check, res.Failed)
		}
	}
}

// A garbage datagram is a decode error, and a decode error fails the run.
func TestUDPDecodeErrorFailsTheRun(t *testing.T) {
	o := smokeOptions(t, "udp-loopback-64")
	u, _, err := buildUDP(o, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer u.close()
	conn, err := net.DialUDP("udp", nil, u.eps[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("not a gossip message")); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(2 * time.Second); u.eps[0].DecodeErrors() == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	c, res := &checks{}, &Result{}
	u.finish(c, res)
	if c.failed == 0 {
		t.Errorf("decode error went unnoticed: %+v", c.list)
	}
	if _, failed := u.ops(); failed == 0 {
		t.Error("decode error is not a failed operation")
	}
}

// The daemon workload rejects a scrape whose round counter went backwards.
func TestScrapeValidation(t *testing.T) {
	d := &daemon{}
	for _, step := range []struct {
		body string
		ok   bool
	}{
		{"sendforget_rounds_total 5\n", true},
		{"sendforget_rounds_total 9\n", true},
		{"sendforget_rounds_total 8\n", false},
		{"sendforget_up 1\n", false},
		{"garbage\n", false},
	} {
		if err := d.validate(spScrape, []byte(step.body)); (err == nil) != step.ok {
			t.Errorf("validate(%q) = %v, want ok=%v", step.body, err, step.ok)
		}
	}
	if err := d.validate(spViewByID, []byte(`{"n":4,"live":4,"views":[]}`)); err == nil {
		t.Error("a /view?id reply without the view passed")
	}
}

// -compare over files the program wrote itself: equal files agree, a slower
// file regresses, a file with more failures regresses.
func TestCompareFiles(t *testing.T) {
	o := smokeOptions(t, "udp-loopback-64")
	res, err := o.def.run(o)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name string, edit func(*Result)) string {
		cp := *res
		cp.Metrics = make(map[string]Stat)
		for k, v := range res.Metrics {
			cp.Metrics[k] = v
		}
		edit(&cp)
		path := filepath.Join(dir, name)
		if err := writeFile(path, &File{Runs: []*Result{&cp}}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	same := write("old.json", func(*Result) {})
	slower := write("slower.json", func(r *Result) {
		s := r.Metrics["node_ticks_per_s"]
		r.Metrics["node_ticks_per_s"] = scalar(s.Unit, s.Value/2)
	})
	failing := write("failing.json", func(r *Result) { r.Failed += 5 })
	for _, c := range []struct {
		newer string
		exit  int
		want  string
	}{{same, 0, "ok"}, {slower, 1, "REGRESSION"}, {failing, 1, "REGRESSION"}} {
		var stdout, stderr bytes.Buffer
		if code := compareFiles(same, c.newer, &stdout, &stderr); code != c.exit || !strings.Contains(stdout.String(), c.want) {
			t.Errorf("compare %s: exit %d, want %d with %q\n%s%s", filepath.Base(c.newer), code, c.exit, c.want, stdout.String(), stderr.String())
		}
	}
}
