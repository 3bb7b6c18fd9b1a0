package sendforget

import (
	"strings"
	"testing"
	"testing/quick"

	"sendforget/internal/engine"
	"sendforget/internal/loss"
	"sendforget/internal/peer"
	"sendforget/internal/protocol"
	"sendforget/internal/rng"
	"sendforget/internal/view"
)

// The generic step contract (seed rules, self-loops, message content,
// malformed packets, random-driving invariants) is checked for all five
// protocols by internal/protocol's conformance table; the tests here cover
// what is specific to S&F: the Section 5/6 invariants of whole-system runs
// and the dependence tags.

// cores returns the plain or the tracked core factory.
func cores(s, dl int, tracked bool) protocol.CoreFactory {
	if tracked {
		return func() (protocol.StepCore, error) { return NewTrackedCore(s, dl) }
	}
	return func() (protocol.StepCore, error) { return NewCore(s, dl) }
}

// mustEngine builds a lossless n-node S&F system; initDeg 0 selects
// DefaultInitDegree.
func mustEngine(t *testing.T, n, s, dl, initDeg int, tracked bool, seed int64) *engine.Engine {
	t.Helper()
	if initDeg == 0 {
		initDeg = DefaultInitDegree(s, dl, n)
	}
	e, err := engine.New(cores(s, dl, tracked), n, initDeg, loss.None{}, rng.New(seed))
	if err != nil {
		t.Fatalf("engine.New(n=%d s=%d dL=%d init=%d): %v", n, s, dl, initDeg, err)
	}
	return e
}

func TestConfigValidation(t *testing.T) {
	tests := []struct {
		name              string
		n, s, dl, initDeg int
		wantErr           string
		wantDegree        int // node 0's bootstrap outdegree when valid
	}{
		{"valid", 10, 8, 2, 0, "", 4},
		{"valid paper params", 100, 40, 18, 0, "", 28},
		{"too few nodes", 1, 8, 0, 0, "at least 2 nodes", 0},
		{"odd s", 10, 7, 0, 0, "even and >= 6", 0},
		{"s too small", 10, 4, 0, 0, "even and >= 6", 0},
		{"odd dL", 10, 12, 3, 0, "even in [0, s-6]", 0},
		{"dL too large", 10, 8, 4, 0, "even in [0, s-6]", 0},
		{"negative dL", 10, 8, -2, 0, "even in [0, s-6]", 0},
		// The bootstrap degree is a seed count: SeedView's join rule
		// truncates it to an even number of at most s entries.
		{"odd init degree", 10, 8, 0, 3, "", 2},
		{"init degree above s", 100, 8, 0, 10, "", 8},
		{"init degree >= n", 5, 8, 0, 6, "[1, n-1]", 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			e, err := engine.New(cores(tt.s, tt.dl, false), tt.n, tt.initDeg, loss.None{}, rng.New(1))
			if tt.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				if tt.initDeg == 0 {
					return
				}
				if got := e.View(0).Outdegree(); got != tt.wantDegree {
					t.Fatalf("bootstrap outdegree = %d, want %d", got, tt.wantDegree)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tt.wantErr) {
				t.Fatalf("error = %v, want containing %q", err, tt.wantErr)
			}
		})
	}
}

func TestInitialTopology(t *testing.T) {
	g := mustEngine(t, 12, 8, 2, 4, false, 1).Snapshot()
	if !g.WeaklyConnected() {
		t.Fatal("initial circulant topology not weakly connected")
	}
	for u := 0; u < 12; u++ {
		if got := g.Outdegree(peer.ID(u)); got != 4 {
			t.Errorf("node %d initial outdegree = %d, want 4", u, got)
		}
		if got := g.Indegree(peer.ID(u)); got != 4 {
			t.Errorf("node %d initial indegree = %d, want 4", u, got)
		}
		if got := g.SumDegree(peer.ID(u)); got != 12 {
			t.Errorf("node %d initial sum degree = %d, want 12", u, got)
		}
	}
	if g.SelfEdges() != 0 {
		t.Errorf("initial topology has %d self edges", g.SelfEdges())
	}
}

func TestDefaultInitDegree(t *testing.T) {
	d := DefaultInitDegree(40, 18, 100)
	if d%2 != 0 || d < 18 || d > 40 {
		t.Errorf("default init degree %d outside even [18,40]", d)
	}
	if got := mustEngine(t, 100, 40, 18, 0, false, 1).View(0).Outdegree(); got != d {
		t.Errorf("bootstrap outdegree = %d, want the default %d", got, d)
	}
	// Tiny system: default degree must stay below n.
	d2 := DefaultInitDegree(8, 0, 4)
	if d2 >= 4 || d2 < 2 || d2%2 != 0 {
		t.Errorf("small-n default init degree = %d", d2)
	}
}

// seeded returns a core and a view of k seeded entries 1..k.
func seeded(t *testing.T, s, dl, k int) (*Core, *view.View) {
	t.Helper()
	c, err := NewCore(s, dl)
	if err != nil {
		t.Fatal(err)
	}
	seeds := make([]peer.ID, k)
	for i := range seeds {
		seeds[i] = peer.ID(i + 1)
	}
	lv, err := c.SeedView(seeds)
	if err != nil {
		t.Fatal(err)
	}
	return c, lv
}

// initiateUntilSend retries the initiate step until a non-self-loop action
// fires (selections may hit empty slots; self-loops leave views unchanged).
// It returns the message and the number of self-loops before it.
func initiateUntilSend(t *testing.T, c protocol.StepCore, lv *view.View, u peer.ID, r *rng.RNG) (peer.ID, protocol.Message, int) {
	t.Helper()
	var out protocol.Outbox
	for k := 0; k < 1000; k++ {
		before := lv.Clone()
		msgs, _, ok := c.InitiateBatch(lv, u, r, &out)
		if to, msg, sent := out.Message(); ok {
			if !sent || msgs != 1 {
				t.Fatalf("ok step appended %d messages (msgs=%d)", out.Len(), msgs)
			}
			return to, msg, k
		}
		if out.Len() != 0 || !lv.Equal(before) {
			t.Fatalf("self-loop sent a message or changed the view: %v -> %v", before, lv)
		}
	}
	t.Fatalf("node %v produced no send in 1000 attempts", u)
	return 0, protocol.Message{}, 0
}

func TestInitiateSendsSelfAndPayload(t *testing.T) {
	c, lv := seeded(t, 8, 0, 4)
	to, msg, _ := initiateUntilSend(t, c, lv, 9, rng.New(1))
	if msg.From != 9 || msg.Kind != protocol.KindGossip {
		t.Errorf("msg = %+v, want gossip from n9", msg)
	}
	if len(msg.IDs) != 2 {
		t.Fatalf("msg.IDs = %v, want 2 ids", msg.IDs)
	}
	if msg.IDs[0] != 9 {
		t.Errorf("first id = %v, want sender id n9 (reinforcement)", msg.IDs[0])
	}
	if to == 9 {
		t.Errorf("message sent to self from non-self-containing view")
	}
	// Without duplication, outdegree drops by 2: v and w left the view.
	if got := lv.Outdegree(); got != 2 {
		t.Errorf("outdegree after send = %d, want 2", got)
	}
	if lv.Contains(to) || lv.Contains(msg.IDs[1]) {
		t.Errorf("sent ids %v, %v still in view %v", to, msg.IDs[1], lv)
	}
	if msg.Dup {
		t.Error("msg.Dup set for non-duplicating send")
	}
}

func TestInitiateDuplicatesAtThreshold(t *testing.T) {
	// Outdegree == dL: every send duplicates and outdegree never drops.
	c, lv := seeded(t, 12, 4, 4)
	var out protocol.Outbox
	r := rng.New(2)
	for {
		msgs, dups, ok := c.InitiateBatch(lv, 0, r, &out)
		if !ok {
			continue
		}
		if msgs != 1 || dups != 1 || !out.Msgs[0].Dup {
			t.Errorf("floor send reported msgs=%d dups=%d Dup=%v", msgs, dups, out.Msgs[0].Dup)
		}
		break
	}
	if got := lv.Outdegree(); got != 4 {
		t.Errorf("outdegree after duplicating send = %d, want 4 (kept)", got)
	}
}

func TestInitiateSelfLoopOnEmptySelection(t *testing.T) {
	// With outdegree 2 of 8 slots, most selections hit an empty slot.
	c, lv := seeded(t, 8, 0, 2)
	_, _, loops := initiateUntilSend(t, c, lv, 9, rng.New(3))
	if loops == 0 {
		t.Error("no self-loop in a view with 6 of 8 slots empty")
	}
}

func TestDeliverFillsEmptySlots(t *testing.T) {
	c, lv := seeded(t, 8, 0, 2)
	var out protocol.Outbox
	pkt := protocol.Packet{Kind: protocol.KindGossip, From: 5, IDs: []peer.ID{5, 7}}
	replied, deleted := c.ReceiveBatch(lv, 1, pkt, rng.New(4), &out)
	if replied || out.Len() != 0 {
		t.Error("S&F produced a reply")
	}
	if deleted != 0 {
		t.Errorf("deleted = %d with six empty slots", deleted)
	}
	if lv.Outdegree() != 4 {
		t.Errorf("outdegree after delivery = %d, want 4", lv.Outdegree())
	}
	if !lv.Contains(5) || !lv.Contains(7) {
		t.Errorf("view %v missing delivered ids", lv)
	}
}

func TestDeliverDeletesWhenFull(t *testing.T) {
	c, lv := seeded(t, 6, 0, 6)
	var out protocol.Outbox
	pkt := protocol.Packet{Kind: protocol.KindGossip, From: 5, IDs: []peer.ID{15, 17}}
	if _, deleted := c.ReceiveBatch(lv, 1, pkt, rng.New(5), &out); deleted != 2 {
		t.Errorf("deleted = %d, want both ids", deleted)
	}
	if lv.Outdegree() != 6 || lv.Contains(15) || lv.Contains(17) {
		t.Errorf("full view changed: %v", lv)
	}
}

// runLossless drives actions with every message delivered.
func runLossless(e *engine.Engine, actions int) {
	for k := 0; k < actions; k++ {
		e.Step()
	}
}

func TestInvariantOutdegreeBoundsLossless(t *testing.T) {
	e := mustEngine(t, 50, 12, 4, 6, false, 6)
	runLossless(e, 20000)
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSumDegreeInvariantNoLossNoDupNoDel(t *testing.T) {
	// Lemma 6.2: with no loss, dL = 0, and sum degrees <= s initially, sum
	// degrees are invariant. InitDegree d gives ds = 3d <= s.
	e := mustEngine(t, 30, 12, 0, 4, false, 7)
	runLossless(e, 20000)
	g := e.Snapshot()
	for u := 0; u < 30; u++ {
		if got := g.SumDegree(peer.ID(u)); got != 12 {
			t.Errorf("node %d sum degree = %d, want invariant 12", u, got)
		}
	}
	c := e.Tally()
	if c.DeletedIDs != 0 {
		t.Errorf("deletions happened under the Lemma 6.2 conditions: %d ids", c.DeletedIDs)
	}
	if c.Duplications != 0 {
		t.Errorf("duplications happened with dL=0 and positive degrees: %d", c.Duplications)
	}
}

func TestEdgeCountPreservedWithoutLoss(t *testing.T) {
	e := mustEngine(t, 40, 12, 4, 4, false, 8)
	before := e.Snapshot().NumEdges()
	runLossless(e, 30000)
	after := e.Snapshot().NumEdges()
	// Without loss, edges change only via duplication (+2 per event) and
	// deletion (-1 per deleted id); verify exact bookkeeping.
	c := e.Tally()
	want := before + 2*c.Duplications - c.DeletedIDs
	if after != want {
		t.Errorf("edges = %d, want %d (before %d, dup %d, deleted ids %d)", after, want, before, c.Duplications, c.DeletedIDs)
	}
	if c.Duplications == 0 {
		t.Error("no duplication at init degree dL: the bookkeeping was not exercised")
	}
}

func TestWeakConnectivityMaintainedLossless(t *testing.T) {
	e := mustEngine(t, 60, 16, 6, 8, false, 9)
	runLossless(e, 50000)
	if g := e.Snapshot(); !g.WeaklyConnected() {
		t.Errorf("graph disconnected after lossless run: %d components", g.ComponentCount())
	}
}

func TestJoinLeave(t *testing.T) {
	e := mustEngine(t, 10, 8, 2, 4, false, 1)
	e.Leave(5)
	if e.View(5) != nil {
		t.Fatal("view visible after Leave")
	}
	if err := e.Join(5, []peer.ID{0, 1, 2, 3}); err != nil {
		t.Fatalf("Join: %v", err)
	}
	if got := e.View(5).Outdegree(); got != 4 {
		t.Errorf("joiner outdegree = %d, want 4", got)
	}
	if err := e.Join(5, []peer.ID{0, 1}); err == nil {
		t.Error("Join of active node accepted")
	}
}

func TestJoinValidatesSeeds(t *testing.T) {
	c, err := NewCore(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.SeedView(nil); err == nil {
		t.Error("no seeds accepted")
	}
	c2, err := NewCore(10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.SeedView([]peer.ID{0, 1}); err == nil {
		t.Error("fewer than dL seeds accepted")
	}
	// Odd seed count is truncated to even.
	lv, err := c.SeedView([]peer.ID{0, 1, 2})
	if err != nil {
		t.Fatalf("3 seeds: %v", err)
	}
	if got := lv.Outdegree(); got != 2 {
		t.Errorf("outdegree after odd seeds = %d, want 2", got)
	}
	// Seed overflow is truncated to s.
	seeds := make([]peer.ID, 11)
	for i := range seeds {
		seeds[i] = peer.ID(i % 7)
	}
	if lv, err = c.SeedView(seeds); err != nil {
		t.Fatalf("overflow seeds: %v", err)
	}
	if got := lv.Outdegree(); got != 8 {
		t.Errorf("outdegree after overflow seeds = %d, want 8", got)
	}
}

func TestDepartedNodeIgnored(t *testing.T) {
	e := mustEngine(t, 10, 8, 2, 4, false, 10)
	e.Leave(3)
	e.OnAction = func(ev engine.ActionEvent) {
		if ev.Initiator == 3 && ev.Sent {
			t.Error("departed node initiated an action")
		}
	}
	e.StepAt(3)
	// Messages to a departed node are dead letters and must not revive it.
	for k := 0; k < 2000; k++ {
		e.Step()
	}
	if e.Traffic().DeadLetters == 0 {
		t.Error("no message reached the departed node's id in 2000 steps")
	}
	if e.View(3) != nil {
		t.Error("delivery revived departed node")
	}
}

func TestDependenceTrackingLossless(t *testing.T) {
	e := mustEngine(t, 50, 12, 0, 4, true, 11)
	runLossless(e, 30000)
	st := MeasureDependence(e)
	if st.Entries == 0 {
		t.Fatal("no entries measured")
	}
	if st.Tagged != 0 {
		t.Errorf("lossless dL=0 run tagged %d entries dependent", st.Tagged)
	}
	// Self-edges and duplicates can still occur by the protocol's own
	// mixing; alpha should nevertheless be high.
	if a := st.Alpha(); a < 0.9 {
		t.Errorf("lossless alpha = %v, want >= 0.9 (stats %+v)", a, st)
	}
}

func TestDependenceStatsWithoutTracking(t *testing.T) {
	// Plain cores carry no tags, even where tracked ones would: bootstrap
	// at the floor so every send duplicates.
	e := mustEngine(t, 10, 12, 4, 4, false, 1)
	runLossless(e, 500)
	st := MeasureDependence(e)
	if st.Entries == 0 || st.Tagged != 0 {
		t.Errorf("untracked stats = %+v, want entries and no tags", st)
	}
	if st.Dependent != 0 && st.SelfEdges == 0 && st.Duplicates == 0 {
		t.Errorf("dependent entries without a rule that marks them: %+v", st)
	}
	if (DependenceStats{}).Alpha() != 1 {
		t.Errorf("zero-value Alpha = %v, want 1", DependenceStats{}.Alpha())
	}
}

func TestDuplicationMarksDependence(t *testing.T) {
	sender, err := NewTrackedCore(12, 4)
	if err != nil {
		t.Fatal(err)
	}
	receiver, err := NewTrackedCore(12, 4)
	if err != nil {
		t.Fatal(err)
	}
	lv, err := sender.SeedView([]peer.ID{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	rv, err := receiver.SeedView([]peer.ID{5, 6, 7, 8})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(12)
	to, msg, _ := initiateUntilSend(t, sender, lv, 0, r)
	if !msg.Dup {
		t.Fatal("expected duplicating send")
	}
	// The two kept entries at the sender are tagged: v (the destination)
	// and w (the payload).
	for i, tagged := range sender.dep {
		want := lv.Slot(i) == to || lv.Slot(i) == msg.IDs[1]
		if tagged != want {
			t.Errorf("sender slot %d (%v) tagged = %v, want %v", i, lv.Slot(i), tagged, want)
		}
	}
	var out protocol.Outbox
	receiver.ReceiveBatch(rv, to, protocol.Packet(msg), r, &out)
	// So are the two entries the message created at the receiver.
	for i, tagged := range receiver.dep {
		want := rv.Slot(i) == msg.IDs[0] || rv.Slot(i) == msg.IDs[1]
		if tagged != want {
			t.Errorf("receiver slot %d (%v) tagged = %v, want %v", i, rv.Slot(i), tagged, want)
		}
	}
	// A non-duplicating message moving into tagged slots would clear them;
	// here: the receiver, now above the floor, sends without duplication
	// and its two selected slots lose their tags.
	_, msg2, _ := initiateUntilSend(t, receiver, rv, to, r)
	if msg2.Dup {
		t.Fatal("receiver at outdegree 6 > dL duplicated")
	}
	for i, tagged := range receiver.dep {
		if tagged && rv.Slot(i).IsNil() {
			t.Errorf("cleared slot %d kept its tag", i)
		}
	}
}

func TestName(t *testing.T) {
	e := mustEngine(t, 10, 8, 2, 0, false, 1)
	if e.Name() != "send&forget" {
		t.Errorf("Name = %q", e.Name())
	}
	if e.N() != 10 {
		t.Errorf("N = %d", e.N())
	}
	if got := e.Core(0).ViewSize(); got != 8 {
		t.Errorf("ViewSize = %d", got)
	}
}

func TestQuickInvariantsUnderRandomDriving(t *testing.T) {
	// Property: under arbitrary loss rates and scheduling, outdegrees stay
	// even and within [dL, s].
	f := func(seed int64, lossPct uint8) bool {
		e, err := engine.New(cores(10, 2, false), 20, 4, loss.MustUniform(float64(lossPct%100)/100), rng.New(seed))
		if err != nil {
			return false
		}
		runLossless(e, 2000)
		return e.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
