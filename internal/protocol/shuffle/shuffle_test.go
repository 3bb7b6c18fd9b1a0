package shuffle

import (
	"testing"

	"sendforget/internal/peer"
	"sendforget/internal/protocol"
	"sendforget/internal/rng"
	"sendforget/internal/runtime"
	"sendforget/internal/view"
)

// The generic step contract is checked for all five protocols by
// internal/protocol's conformance table; the tests here cover the exchange
// itself: id conservation without loss and decay with it.

func cores(s int) protocol.CoreFactory {
	return func() (protocol.StepCore, error) { return NewCore(s) }
}

// newSeq builds an n-node overlay of cores f on the seq engine.
func newSeq(f protocol.CoreFactory, n, degree int, lossRate float64, seed int64) (*runtime.Seq, error) {
	sub, err := runtime.New(runtime.Config{Engine: runtime.EngineSeq, N: n, NewCore: f, InitDegree: degree, Loss: lossRate, Seed: seed})
	if err != nil {
		return nil, err
	}
	return sub.(*runtime.Seq), nil
}

func mustEngine(t *testing.T, n, s, initDeg int, lossRate float64, seed int64) *runtime.Seq {
	t.Helper()
	e, err := newSeq(cores(s), n, initDeg, lossRate, seed)
	if err != nil {
		t.Fatalf("newSeq(n=%d s=%d init=%d): %v", n, s, initDeg, err)
	}
	return e
}

func TestValidation(t *testing.T) {
	if _, err := NewCore(1); err == nil {
		t.Error("accepted s=1")
	}
	if _, err := newSeq(cores(4), 1, 0, 0, 1); err == nil {
		t.Error("accepted n=1")
	}
	if _, err := newSeq(cores(8), 3, 4, 0, 1); err == nil {
		t.Error("accepted init degree >= n")
	}
	// A bootstrap degree above s is a seed overflow: truncated to s.
	e, err := newSeq(cores(4), 10, 5, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Views()[0].Outdegree(); got != 4 {
		t.Errorf("init degree > s seeded %d entries, want 4", got)
	}
}

func TestInitialTopologyConnected(t *testing.T) {
	e := mustEngine(t, 20, 8, 4, 0, 1)
	if e.Snapshot().ComponentCount() != 1 {
		t.Fatal("initial topology disconnected")
	}
	cores := map[string]int{}
	e.EachNode(func(_ peer.ID, _ *view.View, c protocol.StepCore) { cores[c.Name()]++ })
	if cores["shuffle"] != 20 || len(cores) != 1 {
		t.Errorf("identity: cores %v, want 20 shuffle", cores)
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
	c := e.Counters()
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
	lv := seeded(t, c, 1, 2, 3, 4)
	rv := seeded(t, c, 5, 6, 7, 8)
	r := rng.New(3)
	var out protocol.Outbox
	for {
		if _, _, ok := c.InitiateBatch(lv, 0, r, &out); ok {
			break
		}
	}
	to, req, _ := out.Lend()
	if req.Kind != protocol.KindRequest || lv.Outdegree() != 2 {
		t.Fatalf("request %+v left outdegree %d, want a request and 2", req, lv.Outdegree())
	}
	// The request's ids are lent from out: the reply goes into an outbox of
	// its own.
	var replies protocol.Outbox
	replied, deleted := c.ReceiveBatch(rv, to, protocol.Packet(req), r, &replies)
	if !replied || deleted != 0 {
		t.Fatalf("request to a half-full view: replied=%v deleted=%d", replied, deleted)
	}
	replyTo, reply, _ := replies.Lend()
	if replyTo != 0 || reply.Kind != protocol.KindReply || len(reply.IDs) != 2 {
		t.Errorf("reply %+v to %v, want two ids back to n0", reply, replyTo)
	}
	// The offer replaced the two entries sent back: outdegree unchanged.
	if rv.Outdegree() != 4 {
		t.Errorf("responder outdegree = %d, want 4", rv.Outdegree())
	}
	// A responder with a single entry offers just that one.
	one := seeded(t, c, 9)
	out.Reset()
	c.ReceiveBatch(one, to, protocol.Packet{Kind: protocol.KindRequest, From: 0}, r, &out)
	if _, reply, ok := out.Lend(); !ok || len(reply.IDs) != 1 || reply.IDs[0] != 9 || one.Outdegree() != 0 {
		t.Errorf("single-entry responder replied %+v (ok=%v), view %v", reply, ok, one)
	}
}

func TestSelfLoopOnEmptyView(t *testing.T) {
	c, err := NewCore(4)
	if err != nil {
		t.Fatal(err)
	}
	lv := seeded(t, c, 1, 2)
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
	e.RemoveNode(2)
	if e.Views()[2] != nil {
		t.Fatal("Leave did not deactivate")
	}
	if err := e.AddNode(2, []peer.ID{0, 1}, false); err != nil {
		t.Fatalf("Join: %v", err)
	}
	if e.Views()[2].Outdegree() != 2 {
		t.Fatal("Join did not restore the node")
	}
	if err := e.AddNode(2, []peer.ID{0}, false); err == nil {
		t.Error("double join accepted")
	}
	e.RemoveNode(3)
	if err := e.AddNode(3, nil, false); err == nil {
		t.Error("join without seeds accepted")
	}
	// Seeds beyond s are truncated.
	e.RemoveNode(4)
	seeds := make([]peer.ID, 12)
	for i := range seeds {
		seeds[i] = peer.ID(i % 3)
	}
	if err := e.AddNode(4, seeds, false); err != nil {
		t.Fatal(err)
	}
	if got := e.Views()[4].Outdegree(); got != 8 {
		t.Errorf("overflow join outdegree = %d, want 8", got)
	}
	// Departed nodes neither initiate nor reply: requests to them are dead
	// letters.
	e.RemoveNode(5)
	before := e.Counters()
	e.StepAt(5)
	if c := e.Counters(); c.Sends != before.Sends || c.SelfLoops != before.SelfLoops+1 {
		t.Errorf("departed node initiated: counters %+v after %+v", c, before)
	}
	runtime.Run(e, 100)
	if e.Traffic().DeadLetters == 0 || e.Views()[5] != nil {
		t.Errorf("dead letters = %d, departed view %v", e.Traffic().DeadLetters, e.Views()[5])
	}
}

func TestUnknownKindIgnored(t *testing.T) {
	c, err := NewCore(4)
	if err != nil {
		t.Fatal(err)
	}
	lv := seeded(t, c, 1, 2)
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

// seeded returns a view of c's size seeded with ids.
func seeded(t *testing.T, c *Core, ids ...peer.ID) *view.View {
	t.Helper()
	lv := view.New(c.ViewSize())
	if err := c.SeedView(lv, ids); err != nil {
		t.Fatal(err)
	}
	return lv
}
