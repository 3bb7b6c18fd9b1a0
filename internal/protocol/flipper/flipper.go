// Package flipper implements the 1-flipper baseline of Mahlmann and
// Schindelhauer [26], the second delete-on-send family the paper's Section
// 3.1 surveys (alongside shuffle). A flip is an atomic edge exchange: node
// u with edge (u, w) contacts its out-neighbor v holding an edge (v, z) and
// the pair swap endpoints, yielding (u, z) and (v, w). On a lossless
// network flips preserve every node's outdegree exactly — the protocol
// performs random transformations of a regular digraph. Under loss, the
// two-message exchange breaks: a dropped request or reply permanently
// destroys edges, the defect the paper's S&F exists to fix.
//
// The implementation expresses a flip as a request/reply pair in the shared
// protocol.Message vocabulary so every driver can run it and lose its
// messages.
package flipper

import (
	"fmt"

	"sendforget/internal/peer"
	"sendforget/internal/protocol"
	"sendforget/internal/rng"
	"sendforget/internal/view"
)

// Core is the per-node 1-flipper step core implementing protocol.StepCore:
// one side of the atomic edge exchange expressed over a single local view.
// It holds parameters only.
type Core struct {
	s int
}

var _ protocol.StepCore = (*Core)(nil)

// NewCore builds a flipper step core with view size s.
func NewCore(s int) (*Core, error) {
	if s < 2 {
		return nil, fmt.Errorf("flipper: view size must be >= 2, got %d", s)
	}
	return &Core{s: s}, nil
}

// Name returns "flipper".
func (c *Core) Name() string { return "flipper" }

// ViewSize returns s.
func (c *Core) ViewSize() int { return c.s }

// SeedView fills the empty view lv with the seed ids (at least one).
func (c *Core) SeedView(lv *view.View, seeds []peer.ID) error {
	if lv.Seed(seeds) == 0 {
		return fmt.Errorf("flipper: need at least one seed")
	}
	return nil
}

// InitiateBatch starts a flip: u removes its payload edge (u, w) and offers
// it to its out-neighbor v. The edge (u, v) itself stays put — it is the
// rail the exchange travels on. Parallel-edge selections (v == w) make
// degenerate flips; they are self-loops like empty selections.
//
//vet:hotpath
func (c *Core) InitiateBatch(lv *view.View, u peer.ID, r *rng.RNG, out *protocol.Outbox) (msgs, dups int, ok bool) {
	i, j := lv.RandomPairFast(r)
	v, w := lv.Slot(i), lv.Slot(j)
	if v.IsNil() || w.IsNil() || v == w {
		return 0, 0, false
	}
	lv.Clear(j)
	out.Append1(v, u, protocol.KindRequest, false, w)
	return 1, 0, true
}

// ReceiveBatch handles flip requests and replies. A request is the pointer
// flip in one view operation — detach a uniform occupied entry z, adopt w
// in a uniform empty slot, outdegree unchanged — with z sent back as the
// reply; a reply just stores the returned id. Other kinds and malformed
// arities are ignored.
//
//vet:hotpath
func (c *Core) ReceiveBatch(lv *view.View, u peer.ID, pkt protocol.Packet, r *rng.RNG, out *protocol.Outbox) (replied bool, deleted int) {
	if len(pkt.IDs) != 1 {
		return false, 0
	}
	switch pkt.Kind {
	case protocol.KindRequest:
		if z, ok := lv.ReplaceRandomOccupied(r, pkt.IDs[0]); ok {
			out.Append1(pkt.From, u, protocol.KindReply, false, z)
			return true, 0
		}
		// Degenerate: nothing to swap; adopt w (an empty view has room).
		return false, store(lv, pkt.IDs[0], r)
	case protocol.KindReply:
		return false, store(lv, pkt.IDs[0], r)
	}
	return false, 0
}

// store places id into a uniformly chosen empty slot and returns 1 when the
// view is full and the id is dropped.
func store(lv *view.View, id peer.ID, r *rng.RNG) (deleted int) {
	if i, ok := lv.RandomEmptySlot(r); ok {
		lv.Set(i, id)
		return 0
	}
	return 1
}

// CheckView verifies internal view consistency; the flipper keeps no parity
// or floor invariant (under loss its edge population only decays).
func (c *Core) CheckView(lv *view.View) error {
	return lv.CheckInvariants()
}
