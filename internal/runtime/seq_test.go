package runtime_test

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"sendforget/internal/faults"
	"sendforget/internal/loss"
	"sendforget/internal/metrics"
	"sendforget/internal/peer"
	"sendforget/internal/protocol"
	"sendforget/internal/protocol/pushpull"
	"sendforget/internal/protocol/shuffle"
	"sendforget/internal/runtime"
	"sendforget/internal/view"
)

// newSeq builds a seq overlay from cfg.
func newSeq(t *testing.T, cfg runtime.Config) *runtime.Seq {
	t.Helper()
	cfg.Engine = runtime.EngineSeq
	sub, err := runtime.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sub.(*runtime.Seq)
}

// seqSF builds an n-node S&F overlay (s=12, dL=4, degree 6) on the seq
// engine over the base loss model lm.
func seqSF(t *testing.T, n int, lm loss.Model, seed int64) *runtime.Seq {
	t.Helper()
	cond, err := faults.New(lm)
	if err != nil {
		t.Fatal(err)
	}
	return newSeq(t, runtime.Config{N: n, NewCore: sfFactory(12, 4), InitDegree: 6, Conditions: cond, Seed: seed})
}

// active counts the nodes with a view.
func active(e *runtime.Seq) int {
	k := 0
	e.EachNode(func(peer.ID, *view.View, protocol.StepCore) { k++ })
	return k
}

func TestSeqNewValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  runtime.Config
	}{
		{"nil core factory", runtime.Config{N: 10, InitDegree: 6}},
		{"init degree >= n", runtime.Config{N: 10, NewCore: sfFactory(12, 4), InitDegree: 10}},
		{"fewer than dL seeds per node", runtime.Config{N: 10, NewCore: sfFactory(12, 4), InitDegree: 2}},
		{"cores fail validation", runtime.Config{N: 10, NewCore: sfFactory(7, 0)}},
	} {
		tc.cfg.Engine = runtime.EngineSeq
		if _, err := runtime.New(tc.cfg); err == nil {
			t.Errorf("accepted %s", tc.name)
		}
	}
	e := seqSF(t, 10, loss.None{}, 1)
	if active(e) != 10 || len(e.Views()) != 10 {
		t.Errorf("active = %d, N = %d, want 10", active(e), len(e.Views()))
	}
	e.EachNode(func(u peer.ID, lv *view.View, core protocol.StepCore) {
		if core.Name() != "send&forget" || lv.Outdegree() != 6 {
			t.Errorf("node %v: core %q, view %v", u, core.Name(), lv)
		}
	})
	// Default bootstrap degree: about half the view, even, below n.
	e = newSeq(t, runtime.Config{N: 4, NewCore: sfFactory(8, 0)})
	if d := e.Views()[0].Outdegree(); d != 2 {
		t.Errorf("default init degree at n=4 = %d, want 2", d)
	}
}

func TestSeqRejectsEmptyPool(t *testing.T) {
	for _, n := range []int{0, 1} {
		if _, err := runtime.New(runtime.Config{Engine: runtime.EngineSeq, N: n, NewCore: sfFactory(12, 4)}); err == nil {
			t.Errorf("accepted a %d-node pool", n)
		}
	}
}

func TestSeqRoundStepAccounting(t *testing.T) {
	e := seqSF(t, 25, loss.None{}, 2)
	runtime.Run(e, 4)
	if ticks := e.Counters().Ticks; ticks != 100 {
		t.Errorf("Ticks after 4 rounds of 25 = %d, want 100", ticks)
	}
	c := e.Traffic()
	if !c.Conserved() {
		t.Errorf("send accounting broken: %+v", c)
	}
	if c.Losses != 0 {
		t.Errorf("lossless run recorded %d losses", c.Losses)
	}
	e.RemoveNode(7)
	before, sends := e.Counters(), c.Sends
	e.StepAt(7) // a departed node does not act: the step is a self-loop
	if pc := e.Counters(); pc.Ticks != before.Ticks+1 || pc.SelfLoops != before.SelfLoops+1 || e.Traffic().Sends != sends {
		t.Errorf("stepping departed node 7: counters %+v -> %+v", before, pc)
	}
}

func TestSeqEmpiricalLossRate(t *testing.T) {
	e := seqSF(t, 50, loss.MustUniform(0.1), 4)
	runtime.Run(e, 400)
	c := e.Traffic()
	if c.Sends < 1000 {
		t.Fatalf("too few sends (%d) for a rate estimate", c.Sends)
	}
	if math.Abs(c.LossRate()-0.1) > 0.02 {
		t.Errorf("empirical loss rate %v, want ~0.1", c.LossRate())
	}
}

func TestSeqLossRateEmptyCounters(t *testing.T) {
	e := seqSF(t, 10, loss.MustUniform(0.5), 4)
	if c := e.Traffic(); c.LossRate() != 0 {
		t.Errorf("LossRate before the first step = %v (%+v)", c.LossRate(), c)
	}
}

func TestSeqInvariantsAfterLossyRun(t *testing.T) {
	e := seqSF(t, 60, loss.MustUniform(0.05), 5)
	runtime.Run(e, 300)
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	g := e.Snapshot()
	if g.ComponentCount() != 1 {
		t.Errorf("graph disconnected after moderate-loss run: %d components", g.ComponentCount())
	}
}

func TestSeqShuffleReplyChainsThroughLoss(t *testing.T) {
	e := newSeq(t, runtime.Config{
		N: 30, NewCore: func() (protocol.StepCore, error) { return shuffle.NewCore(10) },
		InitDegree: 6, Loss: 0.2, Seed: 8,
	})
	before := e.Snapshot().NumEdges()
	runtime.Run(e, 300)
	after := e.Snapshot().NumEdges()
	if after >= before {
		t.Errorf("shuffle under 20%% loss did not lose ids: %d -> %d", before, after)
	}
	c := e.Traffic()
	if c.Deliveries == 0 || c.Losses == 0 {
		t.Errorf("expected both deliveries and losses: %+v", c)
	}
	// Replies mean more sends than steps that emitted a request, and the
	// protocol tally splits the two.
	pc := e.Counters()
	if pc.Replies == 0 || c.Sends != pc.Sends+pc.Replies || pc.Ticks != 300*30 || pc.Receives != c.Deliveries {
		t.Errorf("transport ledger %+v does not match protocol tally %+v", c, pc)
	}
}

func TestSeqPushPullStableUnderLoss(t *testing.T) {
	e := newSeq(t, runtime.Config{
		N: 30, NewCore: func() (protocol.StepCore, error) { return pushpull.NewCore(10) },
		InitDegree: 10, Loss: 0.2, Seed: 9,
	})
	before := e.Snapshot().NumEdges()
	runtime.Run(e, 300)
	after := e.Snapshot().NumEdges()
	if after < before {
		t.Errorf("push-pull lost ids under loss: %d -> %d", before, after)
	}
}

func TestSeqOnActionEvents(t *testing.T) {
	e := seqSF(t, 20, loss.MustUniform(0.3), 20)
	var events []runtime.ActionEvent
	e.OnAction = func(ev runtime.ActionEvent) { events = append(events, ev) }
	runtime.Run(e, 30)
	if len(events) != 600 {
		t.Fatalf("events = %d, want 600", len(events))
	}
	sent, lost, selfLoops, delivered := 0, 0, 0, 0
	for i, ev := range events {
		if ev.Step != i+1 {
			t.Fatalf("event %d has step %d", i, ev.Step)
		}
		if !ev.Sent {
			selfLoops++
			if ev.Lost || ev.Delivered > 0 {
				t.Fatalf("self-loop event with transport outcomes: %+v", ev)
			}
			continue
		}
		sent++
		if ev.Lost {
			lost++
		}
		delivered += ev.Delivered
	}
	c := e.Traffic()
	if sent != c.Sends {
		t.Errorf("event sends %d != counter %d", sent, c.Sends)
	}
	if lost != c.Losses {
		t.Errorf("event losses %d != counter %d", lost, c.Losses)
	}
	if delivered != c.Deliveries {
		t.Errorf("event deliveries %d != counter %d", delivered, c.Deliveries)
	}
	if selfLoops == 0 || lost == 0 || delivered == 0 {
		t.Errorf("expected a mix of outcomes: self=%d lost=%d delivered=%d", selfLoops, lost, delivered)
	}
}

// TestSeqSeededRunPin holds the seq engine to the exact run the deleted
// plain-loss router path produced: the expected digests and ledgers were
// recorded by running this body when that path still existed, so routing a
// bare model through faults.New(lm) is shown draw-for-draw equal, for a
// uniform and for a destination-aware model.
func TestSeqSeededRunPin(t *testing.T) {
	perDest, err := loss.NewPerDest(0.02, map[peer.ID]float64{3: 0.5, 17: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		lm      loss.Model
		digest  uint64
		traffic metrics.Traffic
	}{
		{loss.MustUniform(0.05), 0xba8c2583aca4976c, metrics.Traffic{Sends: 579, Losses: 23, Deliveries: 556}},
		{perDest, 0x86c1c3222fffc415, metrics.Traffic{Sends: 545, Losses: 23, Deliveries: 522}},
	} {
		e := seqSF(t, 40, tc.lm, 14)
		runtime.Run(e, 50)
		h := fnv.New64a()
		var b [8]byte
		for _, v := range e.Views() {
			for i := 0; i < v.Size(); i++ {
				binary.LittleEndian.PutUint64(b[:], uint64(v.Slot(i)))
				h.Write(b[:])
			}
		}
		if got := h.Sum64(); got != tc.digest {
			t.Errorf("%v: view digest %#x, want %#x", tc.lm, got, tc.digest)
		}
		if got := e.Traffic(); got != tc.traffic {
			t.Errorf("%v: traffic %+v, want %+v", tc.lm, got, tc.traffic)
		}
	}
}
