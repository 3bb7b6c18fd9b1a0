package shuffle

import (
	"testing"

	"sendforget/internal/engine"
	"sendforget/internal/loss"
	"sendforget/internal/peer"
	"sendforget/internal/protocol"
	"sendforget/internal/rng"
)

// The generic step contract is checked for all five protocols by
// internal/protocol's conformance table; the tests here cover the exchange
// itself: id conservation without loss and decay with it.

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
	if _, err := engine.New(cores(8), 3, 4, loss.None{}, r); err == nil {
		t.Error("accepted init degree >= n")
	}
	// A bootstrap degree above s is a seed overflow: truncated to s.
	e, err := engine.New(cores(4), 10, 5, loss.None{}, r)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.View(0).Outdegree(); got != 4 {
		t.Errorf("init degree > s seeded %d entries, want 4", got)
	}
}

func TestInitialTopologyConnected(t *testing.T) {
	e := mustEngine(t, 20, 8, 4, 0, 1)
	if !e.Snapshot().WeaklyConnected() {
		t.Fatal("initial topology disconnected")
	}
	if e.Name() != "shuffle" || e.N() != 20 {
		t.Errorf("identity: name=%q n=%d", e.Name(), e.N())
	}
}

func TestEdgesConservedWithoutLoss(t *testing.T) {
	e := mustEngine(t, 30, 10, 4, 0, 1)
	before := e.Snapshot().NumEdges()
	for k := 0; k < 20000; k++ {
		e.Step()
	}
	after := e.Snapshot().NumEdges()
	// The initiator injects its own id into its offer, so each full
	// exchange conserves the id population exactly except for ids that
	// find the receiving view full.
	c := e.Tally()
	if want := before - c.DeletedIDs; after != want {
		t.Errorf("edges = %d, want %d (before=%d deleted ids=%d)", after, want, before, c.DeletedIDs)
	}
	if c.Replies == 0 {
		t.Error("no exchange completed")
	}
}

func TestIDsDecayUnderLoss(t *testing.T) {
	// The paper's Section 3.1 claim: delete-on-send protocols gradually
	// lose ids under message loss. At 20% loss and many rounds, the edge
	// population must collapse far below its initial value.
	e := mustEngine(t, 50, 10, 6, 0.2, 2)
	before := e.Snapshot().NumEdges()
	for k := 0; k < 100000; k++ {
		e.Step()
	}
	after := e.Snapshot().NumEdges()
	if after > before/4 {
		t.Errorf("edge population %d -> %d; expected collapse under 20%% loss", before, after)
	}
}

func TestRequestGeneratesReply(t *testing.T) {
	c, err := NewCore(8)
	if err != nil {
		t.Fatal(err)
	}
	lv, _ := c.SeedView([]peer.ID{1, 2, 3, 4})
	rv, _ := c.SeedView([]peer.ID{5, 6, 7, 8})
	r := rng.New(3)
	var out protocol.Outbox
	for {
		if _, _, ok := c.InitiateBatch(lv, 0, r, &out); ok {
			break
		}
	}
	to, req, _ := out.Message()
	if req.Kind != protocol.KindRequest || lv.Outdegree() != 2 {
		t.Fatalf("request %+v left outdegree %d, want a request and 2", req, lv.Outdegree())
	}
	out.Reset()
	replied, deleted := c.ReceiveBatch(rv, to, protocol.Packet(req), r, &out)
	if !replied || deleted != 0 {
		t.Fatalf("request to a half-full view: replied=%v deleted=%d", replied, deleted)
	}
	replyTo, reply, _ := out.Message()
	if replyTo != 0 || reply.Kind != protocol.KindReply || len(reply.IDs) != 2 {
		t.Errorf("reply %+v to %v, want two ids back to n0", reply, replyTo)
	}
	// The offer replaced the two entries sent back: outdegree unchanged.
	if rv.Outdegree() != 4 {
		t.Errorf("responder outdegree = %d, want 4", rv.Outdegree())
	}
	// A responder with a single entry offers just that one.
	one, _ := c.SeedView([]peer.ID{9})
	out.Reset()
	c.ReceiveBatch(one, to, protocol.Packet{Kind: protocol.KindRequest, From: 0}, r, &out)
	if _, reply, ok := out.Message(); !ok || len(reply.IDs) != 1 || reply.IDs[0] != 9 || one.Outdegree() != 0 {
		t.Errorf("single-entry responder replied %+v (ok=%v), view %v", reply, ok, one)
	}
}

func TestSelfLoopOnEmptyView(t *testing.T) {
	c, err := NewCore(4)
	if err != nil {
		t.Fatal(err)
	}
	lv, _ := c.SeedView([]peer.ID{1, 2})
	// Drain the view via requests nobody answers.
	r := rng.New(4)
	var out protocol.Outbox
	for k := 0; k < 10000 && lv.Outdegree() > 0; k++ {
		c.InitiateBatch(lv, 0, r, &out)
	}
	if lv.Outdegree() != 0 {
		t.Fatal("failed to drain view")
	}
	if _, _, ok := c.InitiateBatch(lv, 0, r, &out); ok {
		t.Error("empty view initiated an exchange")
	}
	// An empty view has nothing to offer back either.
	out.Reset()
	if replied, _ := c.ReceiveBatch(lv, 0, protocol.Packet{Kind: protocol.KindRequest, From: 1}, r, &out); replied {
		t.Error("empty view replied to an empty offer")
	}
}

func TestChurn(t *testing.T) {
	e := mustEngine(t, 10, 8, 4, 0, 5)
	e.Leave(2)
	if e.View(2) != nil {
		t.Fatal("Leave did not deactivate")
	}
	if err := e.Join(2, []peer.ID{0, 1}); err != nil {
		t.Fatalf("Join: %v", err)
	}
	if e.View(2).Outdegree() != 2 {
		t.Fatal("Join did not restore the node")
	}
	if err := e.Join(2, []peer.ID{0}); err == nil {
		t.Error("double join accepted")
	}
	e.Leave(3)
	if err := e.Join(3, nil); err == nil {
		t.Error("join without seeds accepted")
	}
	// Seeds beyond s are truncated.
	e.Leave(4)
	seeds := make([]peer.ID, 12)
	for i := range seeds {
		seeds[i] = peer.ID(i % 3)
	}
	if err := e.Join(4, seeds); err != nil {
		t.Fatal(err)
	}
	if got := e.View(4).Outdegree(); got != 8 {
		t.Errorf("overflow join outdegree = %d, want 8", got)
	}
	// Departed nodes neither initiate nor reply: requests to them are dead
	// letters.
	e.Leave(5)
	e.OnAction = func(ev engine.ActionEvent) {
		if ev.Initiator == 5 && ev.Sent {
			t.Error("departed node initiated")
		}
	}
	e.StepAt(5)
	e.Run(100)
	if e.Traffic().DeadLetters == 0 || e.View(5) != nil {
		t.Errorf("dead letters = %d, departed view %v", e.Traffic().DeadLetters, e.View(5))
	}
}

func TestUnknownKindIgnored(t *testing.T) {
	c, err := NewCore(4)
	if err != nil {
		t.Fatal(err)
	}
	lv, _ := c.SeedView([]peer.ID{1, 2})
	before := lv.Clone()
	var out protocol.Outbox
	replied, deleted := c.ReceiveBatch(lv, 1, protocol.Packet{Kind: 99, From: 0, IDs: []peer.ID{0}}, rng.New(6), &out)
	if replied || deleted != 0 || out.Len() != 0 {
		t.Error("unknown kind produced a reply or a deletion")
	}
	if !lv.Equal(before) {
		t.Error("unknown kind mutated the view")
	}
}
