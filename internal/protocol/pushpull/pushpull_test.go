package pushpull

import (
	"testing"

	"sendforget/internal/engine"
	"sendforget/internal/loss"
	"sendforget/internal/peer"
	"sendforget/internal/protocol"
	"sendforget/internal/rng"
)

// The generic step contract is checked for all five protocols by
// internal/protocol's conformance table; the tests here cover what
// keep-on-send means: nothing is lost, and dependence accumulates.

func cores(s int) protocol.CoreFactory {
	return func() (protocol.StepCore, error) { return NewCore(s) }
}

func mustEngine(t *testing.T, n, s, initDeg int, lossRate float64, seed int64) *engine.Engine {
	t.Helper()
	e, err := engine.New(cores(s), n, initDeg, loss.MustUniform(lossRate), rng.New(seed))
	if err != nil {
		t.Fatalf("engine.New(n=%d s=%d init=%d): %v", n, s, initDeg, err)
	}
	return e
}

func TestValidation(t *testing.T) {
	if _, err := NewCore(1); err == nil {
		t.Error("accepted s=1")
	}
	r := rng.New(1)
	if _, err := engine.New(cores(4), 1, 0, loss.None{}, r); err == nil {
		t.Error("accepted n=1")
	}
	if _, err := engine.New(cores(8), 4, 4, loss.None{}, r); err == nil {
		t.Error("accepted init degree >= n")
	}
	// A bootstrap degree above s is a seed overflow: truncated to s.
	e, err := engine.New(cores(4), 10, 6, loss.None{}, r)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.View(0).Outdegree(); got != 4 {
		t.Errorf("init degree > s seeded %d entries, want 4", got)
	}
}

func TestSenderKeepsEntries(t *testing.T) {
	c, err := NewCore(8)
	if err != nil {
		t.Fatal(err)
	}
	lv, _ := c.SeedView([]peer.ID{1, 2, 3, 4})
	before := lv.Clone()
	r := rng.New(1)
	var out protocol.Outbox
	for out.Len() == 0 {
		c.InitiateBatch(lv, 2, r, &out)
	}
	if !lv.Equal(before) {
		t.Error("push-pull mutated the sender view on send")
	}
	if to, msg, _ := out.Message(); !lv.Contains(to) || msg.IDs[0] != 2 || !lv.Contains(msg.IDs[1]) || msg.Dup {
		t.Errorf("pushed %+v to %v from view %v", msg, to, lv)
	}
}

func TestPopulationSurvivesHeavyLoss(t *testing.T) {
	// The defining contrast with shuffle: keep-on-send is immune to loss.
	e := mustEngine(t, 50, 10, 6, 0.2, 2)
	before := e.Snapshot().NumEdges()
	for k := 0; k < 100000; k++ {
		e.Step()
	}
	after := e.Snapshot().NumEdges()
	if after < before {
		t.Errorf("edge population shrank %d -> %d; keep-on-send must not lose ids", before, after)
	}
}

func TestEvictionWhenFull(t *testing.T) {
	c, err := NewCore(4)
	if err != nil {
		t.Fatal(err)
	}
	lv, _ := c.SeedView([]peer.ID{2, 3, 4, 5})
	var out protocol.Outbox
	pkt := protocol.Packet{Kind: protocol.KindGossip, From: 0, IDs: []peer.ID{0, 7}}
	if _, deleted := c.ReceiveBatch(lv, 1, pkt, rng.New(3), &out); deleted != 0 {
		t.Errorf("deleted = %d: push-pull keeps every received id", deleted)
	}
	if got := lv.Outdegree(); got != 4 {
		t.Errorf("outdegree after eviction delivery = %d, want 4", got)
	}
	if !lv.Contains(7) {
		t.Error("delivered id not stored after eviction")
	}
}

func TestFillsEmptySlotsFirst(t *testing.T) {
	c, err := NewCore(8)
	if err != nil {
		t.Fatal(err)
	}
	lv, _ := c.SeedView([]peer.ID{2, 3})
	var out protocol.Outbox
	pkt := protocol.Packet{Kind: protocol.KindGossip, From: 0, IDs: []peer.ID{0, 7}}
	c.ReceiveBatch(lv, 1, pkt, rng.New(4), &out)
	if got := lv.Outdegree(); got != 4 {
		t.Errorf("outdegree = %d, want 4 (no eviction needed)", got)
	}
	for _, id := range []peer.ID{2, 3, 0, 7} {
		if !lv.Contains(id) {
			t.Errorf("view %v lost or never stored %v", lv, id)
		}
	}
}

func TestDependenceGrowsUnderGossip(t *testing.T) {
	// Keep-on-send leaves sender and receiver holding the same ids; after a
	// long run the graph should show same-view duplicates or self entries.
	e := mustEngine(t, 30, 10, 10, 0, 5)
	for k := 0; k < 30000; k++ {
		e.Step()
	}
	if g := e.Snapshot(); g.DuplicateEntries() == 0 && g.SelfEdges() == 0 {
		t.Error("expected some duplicate or self entries in keep-on-send steady state")
	}
}

func TestChurn(t *testing.T) {
	e := mustEngine(t, 10, 8, 4, 0, 6)
	e.Leave(2)
	if e.View(2) != nil {
		t.Fatal("Leave did not deactivate")
	}
	if err := e.Join(2, []peer.ID{0, 1, 3}); err != nil {
		t.Fatalf("Join: %v", err)
	}
	if e.View(2).Outdegree() != 3 {
		t.Errorf("joiner outdegree = %d, want 3", e.View(2).Outdegree())
	}
	if err := e.Join(2, []peer.ID{0}); err == nil {
		t.Error("double join accepted")
	}
	e.Leave(3)
	if err := e.Join(3, nil); err == nil {
		t.Error("join without seeds accepted")
	}
	e.Leave(4)
	e.OnAction = func(ev engine.ActionEvent) {
		if ev.Initiator == 4 && ev.Sent {
			t.Error("departed node initiated")
		}
	}
	e.StepAt(4)
	e.Run(100)
	if e.Traffic().DeadLetters == 0 || e.View(4) != nil {
		t.Errorf("dead letters = %d, departed view %v: delivery revived the node or never reached it",
			e.Traffic().DeadLetters, e.View(4))
	}
}

func TestIdentity(t *testing.T) {
	e := mustEngine(t, 10, 8, 0, 0, 1)
	if e.Name() != "push-pull" || e.N() != 10 {
		t.Errorf("identity: name=%q n=%d", e.Name(), e.N())
	}
}
