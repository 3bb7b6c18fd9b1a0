package flipper

import (
	"testing"

	"sendforget/internal/peer"
	"sendforget/internal/protocol"
	"sendforget/internal/rng"
	"sendforget/internal/runtime"
	"sendforget/internal/view"
)

// The generic step contract is checked for all five protocols by
// internal/protocol's conformance table; the tests here cover the flip
// itself: degree preservation without loss and decay with it.

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

func mustEngine(t *testing.T, n, s, degree int, lossRate float64, seed int64) *runtime.Seq {
	t.Helper()
	e, err := newSeq(cores(s), n, degree, lossRate, seed)
	if err != nil {
		t.Fatalf("newSeq(n=%d s=%d degree=%d): %v", n, s, degree, err)
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
	if _, err := newSeq(cores(8), 3, 3, 0, 1); err == nil {
		t.Error("accepted degree >= n")
	}
	// A bootstrap degree above s is a seed overflow: truncated to s.
	e, err := newSeq(cores(4), 10, 5, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Views()[0].Outdegree(); got != 4 {
		t.Errorf("degree > s seeded %d entries, want 4", got)
	}
}

func TestFlipsPreserveRegularityWithoutLoss(t *testing.T) {
	// The flipper's defining property: on a lossless network every node's
	// outdegree is invariant (flips are degree-preserving edge exchanges).
	e := mustEngine(t, 40, 10, 4, 0, 1)
	runtime.Run(e, 300)
	g := e.Snapshot()
	for u := 0; u < 40; u++ {
		if d := g.Outdegree(peer.ID(u)); d != 4 {
			t.Errorf("node %d outdegree = %d, want invariant 4", u, d)
		}
	}
	if c := e.Counters(); c.Replies == 0 || c.DeletedIDs != 0 {
		t.Fatalf("flips completed %d, ids dropped %d", c.Replies, c.DeletedIDs)
	}
	if g.ComponentCount() != 1 {
		t.Error("lossless flipper disconnected the graph")
	}
}

func TestFlipsMixTheGraph(t *testing.T) {
	// After many flips the circulant structure must be gone: some node
	// holds an id outside its original window.
	e := mustEngine(t, 40, 10, 4, 0, 2)
	runtime.Run(e, 300)
	mixed := false
	views := e.Views()
	for u := 0; u < 40 && !mixed; u++ {
		for _, id := range views[u].IDs() {
			diff := (int(id) - u + 40) % 40
			if diff > 4 {
				mixed = true
				break
			}
		}
	}
	if !mixed {
		t.Error("graph still circulant after 300 rounds of flips")
	}
}

func TestEdgesDecayUnderLoss(t *testing.T) {
	// The Section 3.1 claim, same as shuffle: delete-on-send dies under
	// loss. A lost request destroys the payload edge; a lost reply
	// destroys the detached return edge.
	e := mustEngine(t, 60, 10, 6, 0.2, 3)
	before := e.Snapshot().NumEdges()
	runtime.Run(e, 400)
	after := e.Snapshot().NumEdges()
	if after > before/2 {
		t.Errorf("edge population %d -> %d; expected heavy decay under 20%% loss", before, after)
	}
}

func TestDegenerateSelections(t *testing.T) {
	// Views with parallel edges yield v == w selections, which must be
	// self-loops rather than degenerate flips.
	c, err := NewCore(4)
	if err != nil {
		t.Fatal(err)
	}
	lv := seeded(t, c, 1, 1, 2)
	r := rng.New(4)
	var out protocol.Outbox
	sent := 0
	for k := 0; k < 200; k++ {
		out.Reset()
		if _, _, ok := c.InitiateBatch(lv, 0, r, &out); !ok {
			continue
		}
		sent++
		to, msg, _ := out.Lend()
		if to == msg.IDs[0] {
			t.Fatalf("degenerate flip emitted: target %v == payload %v", to, msg.IDs[0])
		}
		// The rail (u, v) stays; only the payload edge left.
		if !lv.Contains(to) || lv.Outdegree() != 2 {
			t.Fatalf("flip offer left view %v (target %v)", lv, to)
		}
		// Put the edge back for the next iteration.
		c.ReceiveBatch(lv, 0, protocol.Packet{Kind: protocol.KindReply, From: to, IDs: msg.IDs}, r, &out)
	}
	if sent == 0 {
		t.Fatal("no flip offered in 200 attempts")
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
	if err := e.AddNode(2, []peer.ID{0}, false); err == nil {
		t.Error("double join accepted")
	}
	e.RemoveNode(3)
	if err := e.AddNode(3, nil, false); err == nil {
		t.Error("join without seeds accepted")
	}
	// Departed nodes neither initiate nor reply: requests to them are dead
	// letters.
	e.RemoveNode(4)
	before := e.Counters()
	e.StepAt(4)
	if c := e.Counters(); c.Sends != before.Sends || c.SelfLoops != before.SelfLoops+1 {
		t.Errorf("departed node initiated: counters %+v after %+v", c, before)
	}
	runtime.Run(e, 100)
	if e.Traffic().DeadLetters == 0 || e.Views()[4] != nil {
		t.Errorf("dead letters = %d, departed view %v", e.Traffic().DeadLetters, e.Views()[4])
	}
}

func TestMalformedMessagesIgnored(t *testing.T) {
	c, err := NewCore(4)
	if err != nil {
		t.Fatal(err)
	}
	lv := seeded(t, c, 2, 3)
	before := lv.Clone()
	r := rng.New(6)
	var out protocol.Outbox
	for _, pkt := range []protocol.Packet{
		{Kind: protocol.KindRequest, From: 0, IDs: []peer.ID{1, 2}},
		{Kind: protocol.KindReply, From: 0, IDs: nil},
		{Kind: 99, From: 0, IDs: []peer.ID{1}},
	} {
		if replied, deleted := c.ReceiveBatch(lv, 1, pkt, r, &out); replied || deleted != 0 {
			t.Errorf("malformed %+v: replied=%v deleted=%d", pkt, replied, deleted)
		}
	}
	if !lv.Equal(before) || out.Len() != 0 {
		t.Error("malformed message mutated the view or produced a reply")
	}
}

func TestIdentityAndSnapshot(t *testing.T) {
	e := mustEngine(t, 10, 8, 0, 0, 1)
	cores := map[string]int{}
	e.EachNode(func(_ peer.ID, _ *view.View, c protocol.StepCore) { cores[c.Name()]++ })
	if cores["flipper"] != 10 || len(cores) != 1 {
		t.Errorf("identity: cores %v, want 10 flipper", cores)
	}
	if e.Snapshot().ComponentCount() != 1 {
		t.Error("initial topology disconnected")
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
