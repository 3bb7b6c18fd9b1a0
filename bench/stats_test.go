package main

import (
	"math"
	"testing"
	"time"

	"sendforget/internal/metrics"
	"sendforget/internal/peer"
	"sendforget/internal/view"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its argument in place")
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4) prints.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 2, 7}, 2, 7, 10},
		{[]float64{3, 1}, 0.5, 2, 3.5},
		{[]float64{4, 8, 15, 16, 23, 42}, 7, 15.5, 27.75},
		{[]float64{7}, 7, 7, 7},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestStatOfIsMedian(t *testing.T) {
	// One disturbed sample moves a quartile, not the reported value.
	s := statOf("ms", []float64{10, 10.2, 9.9, 10.1, 30, 10, 9.8, 10.3, 10.1, 10})
	if !near(s.Value, 10.05) || s.N != 10 || s.Unit != "ms" {
		t.Errorf("statOf = %+v", s)
	}
	if s.spread() > 0.05 {
		t.Errorf("spread %v: the outlier leaked into the quartiles", s.spread())
	}
	if got := scalar("count", 3); got.Value != 3 || got.N != 1 || got.spread() != 0 {
		t.Errorf("scalar = %+v", got)
	}
}

// rounds builds one segment from round durations in milliseconds.
func rounds(ms ...float64) segment {
	var s segment
	for _, m := range ms {
		s.rounds = append(s.rounds, time.Duration(m*float64(time.Millisecond)))
	}
	return s
}

func TestQuietSeconds(t *testing.T) {
	// Every round alike (period 1): bursts that hit a few rounds do not move
	// the estimate, a change in what a round costs does.
	calm := rounds(10, 10, 10, 10, 10, 10, 10, 10)
	burst := rounds(10, 10, 30, 10, 10, 55, 10, 10)
	slower := rounds(12, 12, 36, 12, 12, 60, 12, 12)
	if q := quietSeconds([]segment{calm}, 1, false); !near(q, 0.010) {
		t.Errorf("calm: %v, want 0.010", q)
	}
	if q := quietSeconds([]segment{calm, burst}, 1, false); !near(q, 0.010) {
		t.Errorf("bursts moved the quiet time to %v", q)
	}
	if q := quietSeconds([]segment{slower, slower}, 1, false); !near(q, 0.012) {
		t.Errorf("rounds a fifth slower: %v, want 0.012", q)
	}

	// A period timed as one stretch: the stretches are the samples.
	if q := quietSeconds([]segment{rounds(1, 2, 3, 4), rounds(1, 2, 3, 40), rounds(1, 2, 3, 4), rounds(1, 2, 3, 4)}, 4, false); !near(q, 0.010) {
		t.Errorf("whole periods: %v, want 0.010", q)
	}

	// A scripted period: position by position, so the expensive first round
	// of every period counts, and a burst on one of them does not.
	script := []segment{rounds(50, 10, 10, 50, 10, 10), rounds(50, 10, 10, 90, 10, 10), rounds(50, 10, 30, 50, 10, 10)}
	if q := quietSeconds(script, 3, true); !near(q, 0.070) {
		t.Errorf("by position: %v, want 0.070", q)
	}
}

func TestHostProbeCalibration(t *testing.T) {
	p := newHostProbe(100)
	for i := 0; i < 3; i++ {
		p.run()
	}
	got := p.take()
	if len(got) != 3 || len(p.take()) != 0 || p.last.IsZero() {
		t.Fatalf("take returned %v", got)
	}
	for _, v := range got {
		if v <= 0 {
			t.Errorf("probe sample %v", v)
		}
	}
	// Twice nominal all along is a slowdown of 2, however it is read; a burst
	// moves the mean (a set-up lived through it) and not the quiet quartile.
	level := []float64{2 * probeNominalNS, 2 * probeNominalNS, 2 * probeNominalNS, 2 * probeNominalNS, 2 * probeNominalNS}
	if q, m := quietSlowdown(level), meanSlowdown(level); !near(q, 2) || !near(m, 2) {
		t.Errorf("level shift: quiet %v mean %v, want 2", q, m)
	}
	level[4] *= 6
	if q, m := quietSlowdown(level), meanSlowdown(level); !near(q, 2) || !near(m, 4) {
		t.Errorf("burst: quiet %v mean %v, want 2 and 4", q, m)
	}
}

func TestStateDigest(t *testing.T) {
	mk := func(ids ...peer.ID) *view.View {
		v := view.New(4)
		for i, id := range ids {
			v.Set(i, id)
		}
		return v
	}
	views := []*view.View{mk(1, 2), nil, mk(0)}
	tr := metrics.Traffic{Sends: 10, Losses: 1, Deliveries: 9}
	base := stateDigest(views, tr)
	if base != stateDigest([]*view.View{mk(1, 2), nil, mk(0)}, tr) {
		t.Error("digest of equal state differs")
	}
	moved := []*view.View{mk(1, 2), nil, view.New(4)}
	moved[2].Set(1, 0) // same id, other slot
	for name, other := range map[string]uint64{
		"slot moved":     stateDigest(moved, tr),
		"node departed":  stateDigest([]*view.View{mk(1, 2), nil, nil}, tr),
		"ledger changed": stateDigest(views, metrics.Traffic{Sends: 10, Losses: 2, Deliveries: 8}),
	} {
		if other == base {
			t.Errorf("%s: digest unchanged", name)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	// round [0,100] -> tick [10,70] -> send [20,30], send [40,55]; root [200,210].
	spans := []span{
		{id: 1, kind: spRound, start: 0, end: 100},
		{id: 2, parent: 1, kind: spNodeTick, start: 10, end: 70},
		{id: 3, parent: 2, kind: spUDPSend, start: 20, end: 30},
		{id: 4, parent: 2, kind: spUDPSend, start: 40, end: 55},
		{id: 5, kind: spNodeHandle, start: 200, end: 210},
		{id: 6, parent: 99, kind: spNodeHandle, start: 300, end: 301}, // parent was dropped
	}
	want := []int64{40, 35, 10, 15, 10, 1}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of span %d = %d, want %d", spans[i].id, got, want[i])
		}
	}
	if d := durationsOf(spans, spNodeTick, true, 1); len(d) != 1 || d[0] != 35 {
		t.Errorf("durationsOf(self) = %v", d)
	}
	if d := durationsOf(spans, spUDPSend, false, 1); len(d) != 2 || d[0] != 10 || d[1] != 15 {
		t.Errorf("durationsOf = %v", d)
	}
}

func TestRecorderNestsAndDrops(t *testing.T) {
	r := &recorder{spans: make([]span, 3)}
	r.on.Store(true)
	outer, prev := r.enter(spRound)
	inner, prevInner := r.enter(spTickRound)
	root := r.begin(spScrape, 0)
	dropped := r.begin(spScrape, 0)
	r.end(dropped)
	r.end(root)
	r.leave(inner, prevInner)
	r.leave(outer, prev)
	spans, n := r.recorded()
	if len(spans) != 3 || n != 1 || dropped != 0 {
		t.Fatalf("recorded %d spans, %d dropped (id %d)", len(spans), n, dropped)
	}
	if spans[1].parent != outer || spans[0].parent != 0 || spans[2].parent != 0 || r.open != 0 {
		t.Errorf("parents %d %d %d, open %d", spans[0].parent, spans[1].parent, spans[2].parent, r.open)
	}
	var off *recorder
	if off.enabled() {
		t.Error("nil recorder is enabled")
	}
	off.end(0) // must not dereference
}

func TestChecksCountEveryFailure(t *testing.T) {
	c := &checks{}
	c.that("invariants", true, "ok")
	c.that("invariants", false, "node 3")
	c.that("invariants", false, "node 4")
	c.that("ledger", true, "fine")
	if c.failed != 2 || len(c.list) != 2 || c.list[0].OK || c.list[0].Detail != "node 3" || !c.list[1].OK {
		t.Errorf("checks = %+v failed %d", c.list, c.failed)
	}
}

func TestPromValues(t *testing.T) {
	vals, err := promValues([]byte("# HELP a b\n# TYPE a counter\na_total 12\nup 1\n"))
	if err != nil || vals["a_total"] != 12 || vals["up"] != 1 || len(vals) != 2 {
		t.Errorf("promValues = %v, %v", vals, err)
	}
	if _, err := promValues([]byte("a_total twelve\n")); err == nil {
		t.Error("malformed sample parsed")
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "round_ms_p50", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "node_ticks_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	tight := func(c float64) Stat { return statOf("x", []float64{c * 0.99, c, c * 1.01, c, c * 0.995, c * 1.005}) }
	loose := func(c float64) Stat { return statOf("x", []float64{c * 0.7, c * 0.8, c, c, c * 1.2, c * 1.3}) }
	cases := []struct {
		name     string
		m        metricDef
		old, new Stat
		want     string
	}{
		{"same", lower, tight(10), tight(10.2), "ok"},
		{"slower by 20%", lower, tight(10), tight(12), "REGRESSION"},
		{"faster by 20%", lower, tight(10), tight(8), "ok"},
		{"throughput down 20%", higher, tight(100), tight(80), "REGRESSION"},
		{"throughput up", higher, tight(100), tight(130), "ok"},
		{"noisy old side", lower, loose(10), tight(10), "unresolved"},
		{"noisy new side", higher, tight(100), loose(100), "unresolved"},
		{"noisy but every sample better", lower, loose(10), tight(5), "ok"},
		{"noisy and worse", lower, loose(10), loose(13), "REGRESSION"},
	}
	for _, c := range cases {
		if got := verdict(c.m, c.old, c.new); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
