package engine

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"sendforget/internal/loss"
	"sendforget/internal/metrics"
	"sendforget/internal/peer"
	"sendforget/internal/protocol"
	"sendforget/internal/protocol/pushpull"
	"sendforget/internal/protocol/sendforget"
	"sendforget/internal/protocol/shuffle"
	"sendforget/internal/rng"
)

// sfCores builds the S&F cores (s=12, dL=4) the tests bootstrap at degree 6.
func sfCores() (protocol.StepCore, error) { return sendforget.NewCore(12, 4) }

// newSF builds an n-node S&F engine over lm.
func newSF(t *testing.T, n int, lm loss.Model, seed int64) *Engine {
	t.Helper()
	e, err := New(sfCores, n, 6, lm, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewValidation(t *testing.T) {
	r := rng.New(1)
	if _, err := New(nil, 10, 6, loss.None{}, r); err == nil {
		t.Error("accepted nil core factory")
	}
	if _, err := New(sfCores, 10, 6, nil, r); err == nil {
		t.Error("accepted nil loss model")
	}
	if _, err := New(sfCores, 10, 6, loss.None{}, nil); err == nil {
		t.Error("accepted nil rng")
	}
	if _, err := NewWithConditions(sfCores, 10, 6, nil, r); err == nil {
		t.Error("accepted nil conditions")
	}
	if _, err := New(sfCores, 10, 10, loss.None{}, r); err == nil {
		t.Error("accepted init degree >= n")
	}
	if _, err := New(sfCores, 10, 2, loss.None{}, r); err == nil {
		t.Error("accepted fewer than dL seeds per node")
	}
	bad := func() (protocol.StepCore, error) { return sendforget.NewCore(7, 0) }
	if _, err := New(bad, 10, 0, loss.None{}, r); err == nil {
		t.Error("accepted a factory whose cores fail validation")
	}
	e := newSF(t, 10, loss.None{}, 1)
	if e.ActiveCount() != 10 || e.N() != 10 {
		t.Errorf("ActiveCount = %d, N = %d, want 10", e.ActiveCount(), e.N())
	}
	if e.Name() != "send&forget" {
		t.Errorf("Name = %q", e.Name())
	}
	for u := peer.ID(0); u < 10; u++ {
		if e.View(u).Outdegree() != 6 || e.Core(u) == nil {
			t.Errorf("node %v: view %v, core %v", u, e.View(u), e.Core(u))
		}
	}
	if e.View(10) != nil || e.Core(-1) != nil {
		t.Error("out-of-range node has a view or a core")
	}
	// Default bootstrap degree: about half the view, even, below n.
	e, err := New(func() (protocol.StepCore, error) { return sendforget.NewCore(8, 0) }, 4, 0, loss.None{}, r)
	if err != nil {
		t.Fatal(err)
	}
	if d := e.View(0).Outdegree(); d != 2 {
		t.Errorf("default init degree at n=4 = %d, want 2", d)
	}
}

func TestNewRejectsEmptyPool(t *testing.T) {
	for _, n := range []int{0, 1} {
		if _, err := New(sfCores, n, 0, loss.None{}, rng.New(1)); err == nil {
			t.Errorf("accepted a %d-node pool", n)
		}
	}
}

func TestRoundStepAccounting(t *testing.T) {
	e := newSF(t, 25, loss.None{}, 2)
	e.Run(4)
	if ticks := e.Tally().Ticks; ticks != 100 {
		t.Errorf("Ticks after 4 rounds of 25 = %d, want 100", ticks)
	}
	c := e.Traffic()
	if !c.Conserved() {
		t.Errorf("send accounting broken: %+v", c)
	}
	if c.Losses != 0 {
		t.Errorf("lossless run recorded %d losses", c.Losses)
	}
}

func TestEmpiricalLossRate(t *testing.T) {
	e := newSF(t, 50, loss.MustUniform(0.1), 4)
	e.Run(400)
	c := e.Traffic()
	if c.Sends < 1000 {
		t.Fatalf("too few sends (%d) for a rate estimate", c.Sends)
	}
	if math.Abs(c.LossRate()-0.1) > 0.02 {
		t.Errorf("empirical loss rate %v, want ~0.1", c.LossRate())
	}
}

func TestLossRateEmptyCounters(t *testing.T) {
	e := newSF(t, 10, loss.MustUniform(0.5), 4)
	if c := e.Traffic(); c.LossRate() != 0 {
		t.Errorf("LossRate before the first step = %v (%+v)", c.LossRate(), c)
	}
}

func TestInvariantsAfterLossyRun(t *testing.T) {
	e := newSF(t, 60, loss.MustUniform(0.05), 5)
	e.Run(300)
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	g := e.Snapshot()
	if !g.WeaklyConnected() {
		t.Errorf("graph disconnected after moderate-loss run: %d components", g.ComponentCount())
	}
}

func TestChurnThroughEngine(t *testing.T) {
	e := newSF(t, 20, loss.None{}, 6)
	e.Leave(7)
	if e.ActiveCount() != 19 || e.View(7) != nil || e.Core(7) != nil {
		t.Errorf("after leave: ActiveCount = %d (want 19), view %v, core %v", e.ActiveCount(), e.View(7), e.Core(7))
	}
	// A departed node is never scheduled, and stepping it directly is a
	// self-loop.
	e.OnAction = func(ev ActionEvent) {
		if ev.Initiator == 7 && ev.Sent {
			t.Fatalf("departed node acted: %+v", ev)
		}
	}
	e.StepAt(7)
	e.Run(50)
	e.OnAction = nil
	// The departed id must decay out of all views (Lemma 6.10 dynamics;
	// 50 rounds at these parameters is ample for n=20).
	g := e.Snapshot()
	if inst := g.IDInstances(7); inst > 2 {
		t.Errorf("departed id still has %d instances after 50 rounds", inst)
	}
	if err := e.Join(7, []peer.ID{0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if e.ActiveCount() != 20 {
		t.Errorf("ActiveCount after join = %d, want 20", e.ActiveCount())
	}
	if err := e.Join(7, []peer.ID{0, 1}); err == nil {
		t.Error("Join of an active node accepted")
	}
	if err := e.Join(20, []peer.ID{0, 1, 2, 3}); err == nil {
		t.Error("Join outside the universe accepted")
	}
	e.Run(20)
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Double leave is harmless.
	e.Leave(7)
	e.Leave(7)
	if e.ActiveCount() != 19 {
		t.Errorf("ActiveCount after double leave = %d, want 19", e.ActiveCount())
	}
}

func TestDeadLetters(t *testing.T) {
	e := newSF(t, 10, loss.None{}, 7)
	e.Leave(0)
	e.Run(200)
	if e.Traffic().DeadLetters == 0 {
		t.Error("no dead letters recorded despite messages to the departed node")
	}
	if e.View(0) != nil {
		t.Error("delivery revived the departed node")
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestShuffleReplyChainsThroughLoss(t *testing.T) {
	e, err := New(func() (protocol.StepCore, error) { return shuffle.NewCore(10) }, 30, 6, loss.MustUniform(0.2), rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	before := e.Snapshot().NumEdges()
	e.Run(300)
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
	pc := e.Tally()
	if pc.Replies == 0 || c.Sends != pc.Sends+pc.Replies || pc.Ticks != 300*30 || pc.Receives != c.Deliveries {
		t.Errorf("transport ledger %+v does not match protocol tally %+v", c, pc)
	}
}

func TestPushPullStableUnderLoss(t *testing.T) {
	e, err := New(func() (protocol.StepCore, error) { return pushpull.NewCore(10) }, 30, 10, loss.MustUniform(0.2), rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	before := e.Snapshot().NumEdges()
	e.Run(300)
	after := e.Snapshot().NumEdges()
	if after < before {
		t.Errorf("push-pull lost ids under loss: %d -> %d", before, after)
	}
}

func TestOnActionEvents(t *testing.T) {
	e := newSF(t, 20, loss.MustUniform(0.3), 20)
	var events []ActionEvent
	e.OnAction = func(ev ActionEvent) { events = append(events, ev) }
	e.Run(30)
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

// TestSeededRunPin holds engine.New to the exact run the deleted plain-loss
// router path produced: the expected digests and ledgers were recorded by
// running this body at the commit before the path went, so routing a bare
// model through faults.New(lm) is shown draw-for-draw equal, for a uniform
// and for a destination-aware model.
func TestSeededRunPin(t *testing.T) {
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
		e := newSF(t, 40, tc.lm, 14)
		e.Run(50)
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
		if fc := e.Conditions().Counters(); fc.Decisions != tc.traffic.Sends || fc.Drops() != tc.traffic.Losses {
			t.Errorf("%v: fault stack tally %+v does not match the ledger %+v", tc.lm, fc, tc.traffic)
		}
	}
}
