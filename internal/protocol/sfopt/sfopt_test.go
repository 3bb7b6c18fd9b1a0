package sfopt

import (
	"strings"
	"testing"

	"sendforget/internal/peer"
	"sendforget/internal/protocol"
	"sendforget/internal/protocol/sendforget"
	"sendforget/internal/rng"
	"sendforget/internal/runtime"
	"sendforget/internal/view"
)

// The generic step contract is checked for all five protocols by
// internal/protocol's conformance table; the tests here cover the three
// optimizations and the variant tally.

// newSeq builds an n-node overlay of cores f on the seq engine.
func newSeq(f protocol.CoreFactory, n, initDeg int, lossRate float64, seed int64) (*runtime.Seq, error) {
	sub, err := runtime.New(runtime.Config{Engine: runtime.EngineSeq, N: n, NewCore: f, InitDegree: initDeg, Loss: lossRate, Seed: seed})
	if err != nil {
		return nil, err
	}
	return sub.(*runtime.Seq), nil
}

// drive runs an n-node system of the variant for the given rounds. initDeg 0
// selects S&F's midpoint between dL and s, as abl3 does.
func drive(t *testing.T, o Options, n, initDeg int, lossRate float64, rounds int, seed int64) *runtime.Seq {
	t.Helper()
	if initDeg == 0 {
		initDeg = sendforget.DefaultInitDegree(o.S, o.DL, n)
	}
	newCore := func() (protocol.StepCore, error) { return NewCore(o) }
	e, err := newSeq(newCore, n, initDeg, lossRate, seed)
	if err != nil {
		t.Fatalf("newSeq(%+v): %v", o, err)
	}
	runtime.Run(e, rounds)
	return e
}

// variantTally sums the per-node variant counters.
func variantTally(e *runtime.Seq) Counters {
	var sum Counters
	e.EachNode(func(_ peer.ID, _ *view.View, core protocol.StepCore) {
		c := core.(*Core).Counters()
		sum.Undeletions += c.Undeletions
		sum.Replaced += c.Replaced
	})
	return sum
}

func TestValidation(t *testing.T) {
	tests := []struct {
		name       string
		n, initDeg int
		opts       Options
		wantErr    string
	}{
		{"baseline valid", 20, 8, Options{S: 12, DL: 4}, ""},
		{"batch valid", 20, 8, Options{S: 12, DL: 4, BatchK: 4}, ""},
		{"odd batch", 20, 8, Options{S: 12, DL: 4, BatchK: 3}, "batch size"},
		{"batch above s", 20, 8, Options{S: 12, DL: 4, BatchK: 14}, "batch size"},
		{"odd s", 20, 8, Options{S: 11, DL: 4}, "even >= 6"},
		{"bad dL", 20, 8, Options{S: 12, DL: 8}, "dL must be even"},
		{"tiny n", 1, 0, Options{S: 12, DL: 4}, "at least 2 nodes"},
		// The bootstrap degree is a seed count, truncated to even.
		{"odd init degree", 20, 5, Options{S: 12, DL: 4}, ""},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			newCore := func() (protocol.StepCore, error) { return NewCore(tt.opts) }
			e, err := newSeq(newCore, tt.n, tt.initDeg, 0, 1)
			if tt.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				if got, want := e.Views()[0].Outdegree(), tt.initDeg&^1; got != want {
					t.Fatalf("bootstrap outdegree = %d, want %d", got, want)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tt.wantErr) {
				t.Fatalf("error = %v, want containing %q", err, tt.wantErr)
			}
		})
	}
}

func TestName(t *testing.T) {
	c, err := NewCore(Options{S: 12, DL: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Name(); got != "s&f-opt" {
		t.Errorf("baseline name = %q", got)
	}
	c, err = NewCore(Options{S: 12, DL: 4, BatchK: 4, ReplaceWhenFull: true, Undelete: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"batch4", "replace", "undelete"} {
		if !strings.Contains(c.Name(), want) {
			t.Errorf("name %q missing %q", c.Name(), want)
		}
	}
}

func TestBaselineVariantMatchesSFSemantics(t *testing.T) {
	// With all optimizations off, the variant must behave like S&F: stable
	// edge population, even degrees, connectivity.
	e := drive(t, Options{S: 16, DL: 6}, 100, 0, 0.05, 300, 1)
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	g := e.Snapshot()
	if !g.WeaklyConnected() {
		t.Error("variant baseline disconnected")
	}
	edges := float64(g.NumEdges()) / 100
	if edges < 6 || edges > 16 {
		t.Errorf("edges per node = %v, want stable mid-range", edges)
	}
	if e.Counters().Duplications == 0 {
		t.Error("no duplications under loss at baseline settings")
	}
	if vc := variantTally(e); vc != (Counters{}) {
		t.Errorf("variant events %+v recorded with every optimization off", vc)
	}
}

func TestBatchMovesMoreIDs(t *testing.T) {
	base := drive(t, Options{S: 16, DL: 6}, 100, 0, 0, 200, 2)
	batch := drive(t, Options{S: 16, DL: 6, BatchK: 4}, 100, 0, 0, 200, 2)
	cb, ck := base.Counters(), batch.Counters()
	if cb.Sends == 0 || ck.Sends == 0 {
		t.Fatal("no sends recorded")
	}
	// Lossless: every send is received; ids moved = ids received and kept.
	perSendBase := float64(2*cb.Receives-cb.DeletedIDs) / float64(cb.Sends)
	perSendBatch := float64(4*ck.Receives-ck.DeletedIDs) / float64(ck.Sends)
	if perSendBatch <= perSendBase {
		t.Errorf("batch4 moved %v ids/send vs baseline %v; want more", perSendBatch, perSendBase)
	}
	if err := batch.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReplaceWhenFullNeverDeletes(t *testing.T) {
	e := drive(t, Options{S: 8, DL: 2, ReplaceWhenFull: true}, 50, 6, 0, 300, 3)
	if c := e.Counters(); c.DeletedIDs != 0 {
		t.Errorf("DeletedIDs = %d with ReplaceWhenFull", c.DeletedIDs)
	}
	if variantTally(e).Replaced == 0 {
		t.Error("no replacements happened despite small views")
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestUndeleteReducesDuplications(t *testing.T) {
	base := drive(t, Options{S: 12, DL: 6}, 150, 6, 0.1, 300, 4)
	und := drive(t, Options{S: 12, DL: 6, Undelete: true}, 150, 6, 0.1, 300, 4)
	// A floor send is compensated either by keeping the entries
	// (duplication proper) or from the graveyard.
	kept := func(e *runtime.Seq) int { return e.Counters().Duplications - variantTally(e).Undeletions }
	if kept(base) == 0 {
		t.Fatal("baseline never duplicated; test configuration too easy")
	}
	if variantTally(und).Undeletions == 0 {
		t.Error("undelete variant never undeleted")
	}
	if kept(und) >= kept(base) {
		t.Errorf("undelete did not reduce duplications: %d vs baseline %d", kept(und), kept(base))
	}
	if err := und.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestUndeleteSurvivesLoss(t *testing.T) {
	e := drive(t, Options{S: 12, DL: 6, Undelete: true}, 150, 6, 0.1, 400, 5)
	g := e.Snapshot()
	edges := float64(g.NumEdges()) / 150
	if edges < 4 {
		t.Errorf("undelete variant decayed to %v edges/node under loss", edges)
	}
	if g.ComponentCount() > 2 {
		t.Errorf("undelete variant fragmented: %d components", g.ComponentCount())
	}
}

func TestDeliverDeletesWithoutReplace(t *testing.T) {
	c, err := NewCore(Options{S: 6, DL: 0})
	if err != nil {
		t.Fatal(err)
	}
	lv := seeded(t, c, 2, 3, 4, 5, 6, 7)
	var out protocol.Outbox
	pkt := protocol.Packet{Kind: protocol.KindGossip, From: 0, IDs: []peer.ID{0, 3}}
	if _, deleted := c.ReceiveBatch(lv, 1, pkt, rng.New(6), &out); deleted != 2 {
		t.Errorf("deleted = %d, want 2 at full view", deleted)
	}
}

func TestSelfLoopOnEmptySelection(t *testing.T) {
	c, err := NewCore(Options{S: 12, DL: 0, BatchK: 4})
	if err != nil {
		t.Fatal(err)
	}
	lv := seeded(t, c, 1, 2, 3, 4)
	// Every one of the BatchK selected slots must be occupied: with 4 of 12
	// slots full almost every selection self-loops, leaving the view alone.
	var out protocol.Outbox
	r := rng.New(7)
	loops := 0
	for i := 0; i < 100; i++ {
		before := lv.Clone()
		if _, _, ok := c.InitiateBatch(lv, 0, r, &out); !ok {
			loops++
			if !lv.Equal(before) {
				t.Fatalf("self-loop changed the view: %v -> %v", before, lv)
			}
		}
	}
	if loops == 0 || out.Len() != 100-loops {
		t.Errorf("%d self-loops and %d messages in 100 steps", loops, out.Len())
	}
}

// TestBatchScratchOnStackAndHeap: a batch up to stackBatch ids takes its
// step scratch from the stack and a larger one from the core, and both
// send [u, the other selected ids...] to the first selected id, clear the
// selected slots of a full view above the floor, and allocate nothing per
// step.
func TestBatchScratchOnStackAndHeap(t *testing.T) {
	for _, k := range []int{stackBatch, stackBatch + 2} {
		c, err := NewCore(Options{S: 20, DL: 0, BatchK: k})
		if err != nil {
			t.Fatal(err)
		}
		full := make([]peer.ID, 20)
		for i := range full {
			full[i] = peer.ID(100 + i)
		}
		lv := seeded(t, c, full...)
		var out protocol.Outbox
		if msgs, _, ok := c.InitiateBatch(lv, 7, rng.New(3), &out); !ok || msgs != 1 {
			t.Fatalf("BatchK %d: initiate on a full view: %d messages, ok %v", k, msgs, ok)
		}
		m := &out.Msgs[0]
		ids := out.MsgIDs(m)
		seen := map[peer.ID]bool{m.To: true}
		for _, id := range ids[1:] {
			seen[id] = true
		}
		if len(ids) != k || ids[0] != 7 || m.From != 7 || len(seen) != k || m.To < 100 || m.To >= 120 {
			t.Fatalf("BatchK %d: message to %d with ids %v", k, m.To, ids)
		}
		if lv.Outdegree() != 20-k {
			t.Fatalf("BatchK %d: outdegree %d after the send, want %d", k, lv.Outdegree(), 20-k)
		}
		for id := range seen {
			if lv.Contains(id) {
				t.Fatalf("BatchK %d: sent id %d still in the view %v", k, id, lv)
			}
		}
		r := rng.New(4)
		if a := testing.AllocsPerRun(100, func() {
			for i, id := range full {
				lv.Set(i, id)
			}
			out.Reset()
			c.InitiateBatch(lv, 7, r, &out)
		}); a != 0 {
			t.Errorf("BatchK %d: %.2f allocations per step", k, a)
		}
	}
}

func TestSnapshotViaGraph(t *testing.T) {
	e := drive(t, Options{S: 12, DL: 4}, 30, 0, 0, 0, 1)
	if !e.Snapshot().WeaklyConnected() {
		t.Error("initial variant topology disconnected")
	}
	if n := len(e.Views()); n != 30 {
		t.Errorf("N = %d", n)
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
