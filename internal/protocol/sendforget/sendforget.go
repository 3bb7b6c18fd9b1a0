// Package sendforget implements the Send & Forget (S&F) protocol of
// Section 5 of the paper (Figure 5.1).
//
// Each node u maintains a view of s slots (s even, s >= 6). An action
// selects two distinct slots uniformly at random; if either is empty the
// action is a self-loop. Otherwise, with v and w the selected ids, u sends
// the message [u, w] to v and — unless its outdegree is at the duplication
// threshold dL — clears both entries. The receiver stores both ids into
// uniformly chosen empty slots unless its view is full, in which case the
// ids are deleted. Duplications compensate for message loss (Section 5);
// deletions shed the resulting surplus.
//
// Invariant (Observation 5.1): every node's outdegree stays even and within
// [dL, s] at all times, given an initial topology that satisfies it.
package sendforget

import (
	"fmt"

	"sendforget/internal/peer"
	"sendforget/internal/protocol"
	"sendforget/internal/rng"
	"sendforget/internal/view"
)

// Core is the per-node S&F step core: the two Figure 5.1 steps over one
// local view, implementing protocol.StepCore. It holds parameters only, so
// a step touches nothing but the view, the RNG and the driver's outbox.
type Core struct {
	s, dl int
}

var _ protocol.StepCore = (*Core)(nil)

// NewCore builds an S&F step core with view size s and duplication
// threshold dl, validating the paper's parameter constraints: s even and at
// least 6 (the reachability proof of Lemma A.3 needs s >= 6), dl even in
// [0, s-6].
func NewCore(s, dl int) (*Core, error) {
	if s < 6 || s%2 != 0 {
		return nil, fmt.Errorf("sendforget: view size s must be even and >= 6, got %d", s)
	}
	if dl < 0 || dl > s-6 || dl%2 != 0 {
		return nil, fmt.Errorf("sendforget: threshold dL must be even in [0, s-6], got dL=%d s=%d", dl, s)
	}
	return &Core{s: s, dl: dl}, nil
}

// DefaultInitDegree picks the bootstrap outdegree for an n-node S&F overlay:
// an even value midway between dL and s, comfortably inside [dL, s] so that
// neither duplications nor deletions fire immediately, and below n.
func DefaultInitDegree(s, dl, n int) int {
	d := (dl + s) / 2
	if d%2 != 0 {
		d--
	}
	if d < 2 {
		d = 2
	}
	if d >= n {
		d = n - 1
		if d%2 != 0 {
			d--
		}
	}
	return d
}

// Name returns "send&forget".
func (c *Core) Name() string { return "send&forget" }

// ViewSize returns s.
func (c *Core) ViewSize() int { return c.s }

// SeedView fills a fresh view with the seed ids. Seeds beyond s are
// dropped; an odd count is truncated to keep the outdegree even; fewer than
// max(2, dL) usable seeds is an error (the paper's join rule).
func (c *Core) SeedView(seeds []peer.ID) (*view.View, error) {
	k := len(seeds)
	if k > c.s {
		k = c.s
	}
	if k%2 != 0 {
		k--
	}
	if k < c.dl || k < 2 {
		return nil, fmt.Errorf("sendforget: need at least max(2, dL=%d) seeds, got %d usable", c.dl, k)
	}
	lv := view.New(c.s)
	for i := 0; i < k; i++ {
		lv.Set(i, seeds[i])
	}
	return lv, nil
}

// initiate is S&F-InitiateAction of Figure 5.1: select two distinct slots
// with one draw; an empty selection is a self-loop; otherwise send [u, w]
// to v and clear both entries unless the outdegree is at the floor dL, in
// which case they are kept (duplicated). It reports the selected slots for
// the dependence tracker.
//
//vet:hotpath
func (c *Core) initiate(lv *view.View, u peer.ID, r *rng.RNG, out *protocol.Outbox) (i, j int, dup, ok bool) {
	i, j = lv.RandomPairFast(r)
	v, w := lv.Slot(i), lv.Slot(j)
	if v.IsNil() || w.IsNil() {
		return i, j, false, false
	}
	dup = lv.Outdegree() <= c.dl
	if !dup {
		lv.ClearOccupiedPair(i, j)
	}
	out.Append2(v, u, protocol.KindGossip, dup, u, w)
	return i, j, dup, true
}

// receive is S&F-Receive of Figure 5.1: store both ids into uniformly
// chosen empty slots, or delete them when the view is full (outdegree can
// never exceed the slot count, so full ⟺ d(u) = s). Packets of another kind
// or arity are ignored — the UDP substrate can deliver garbage. It reports
// the slots stored into for the dependence tracker.
//
//vet:hotpath
func (c *Core) receive(lv *view.View, pkt protocol.Packet, r *rng.RNG) (a, b int, stored bool, deleted int) {
	if pkt.Kind != protocol.KindGossip || len(pkt.IDs) != 2 {
		return 0, 0, false, 0
	}
	if lv.Full() {
		return 0, 0, false, 2
	}
	a, b, ok := lv.RandomEmptyPair(r)
	if !ok {
		// Outdegree below s with even parity guarantees two empty slots;
		// reaching here means the view invariant was violated externally.
		return 0, 0, false, 2
	}
	lv.FillEmptyPair(a, b, pkt.IDs[0], pkt.IDs[1])
	return a, b, true, 0
}

// InitiateBatch implements protocol.StepCore.
//
//vet:hotpath
func (c *Core) InitiateBatch(lv *view.View, u peer.ID, r *rng.RNG, out *protocol.Outbox) (msgs, dups int, ok bool) {
	_, _, dup, ok := c.initiate(lv, u, r, out)
	return sent(dup, ok)
}

// ReceiveBatch implements protocol.StepCore. S&F never replies, so out is
// never written.
//
//vet:hotpath
func (c *Core) ReceiveBatch(lv *view.View, u peer.ID, pkt protocol.Packet, r *rng.RNG, out *protocol.Outbox) (replied bool, deleted int) {
	_, _, _, deleted = c.receive(lv, pkt, r)
	return false, deleted
}

// sent maps an initiate outcome to InitiateBatch's result list.
func sent(dup, ok bool) (msgs, dups int, _ bool) {
	if !ok {
		return 0, 0, false
	}
	if dup {
		dups = 1
	}
	return 1, dups, true
}

// CheckView verifies Observation 5.1: outdegree even and within [dL, s].
func (c *Core) CheckView(lv *view.View) error {
	if err := lv.CheckInvariants(); err != nil {
		return err
	}
	d := lv.Outdegree()
	if d%2 != 0 || d < c.dl || d > c.s {
		return fmt.Errorf("sendforget: outdegree %d violates Observation 5.1 (dL=%d, s=%d)", d, c.dl, c.s)
	}
	return nil
}
