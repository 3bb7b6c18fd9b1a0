// Package shuffle implements a delete-on-send shuffle baseline in the
// spirit of Cyclon [34] and the shuffle/flipper protocols [1, 26, 27] the
// paper surveys in Section 3.1.
//
// An initiator removes two entries (its exchange offer), sends them together
// with its own id to the first one, and the receiver replies with two of its
// own entries, which it removes and replaces by the received ids. Without
// loss the total number of ids in the system is conserved. With loss every
// dropped request or reply permanently destroys the removed ids — the paper's
// claim that such protocols "are unable to withstand message loss ... since
// the system gradually loses more and more ids" is exactly the behaviour the
// base1 experiment measures against S&F.
package shuffle

import (
	"fmt"

	"sendforget/internal/peer"
	"sendforget/internal/protocol"
	"sendforget/internal/rng"
	"sendforget/internal/view"
)

// Core is the per-node shuffle step core implementing protocol.StepCore:
// the delete-on-send exchange expressed over a single local view. It holds
// parameters only.
type Core struct {
	s int
}

var _ protocol.StepCore = (*Core)(nil)

// NewCore builds a shuffle step core with view size s.
func NewCore(s int) (*Core, error) {
	if s < 2 {
		return nil, fmt.Errorf("shuffle: view size must be >= 2, got %d", s)
	}
	return &Core{s: s}, nil
}

// Name returns "shuffle".
func (c *Core) Name() string { return "shuffle" }

// ViewSize returns s.
func (c *Core) ViewSize() int { return c.s }

// SeedView fills the empty view lv with the seed ids (at least one).
func (c *Core) SeedView(lv *view.View, seeds []peer.ID) error {
	if lv.Seed(seeds) == 0 {
		return fmt.Errorf("shuffle: need at least one seed")
	}
	return nil
}

// InitiateBatch removes two entries (the exchange offer) and sends them to
// the first as a request [u, w].
//
//vet:hotpath
func (c *Core) InitiateBatch(lv *view.View, u peer.ID, r *rng.RNG, out *protocol.Outbox) (msgs, dups int, ok bool) {
	i, j := lv.RandomPairFast(r)
	v, w := lv.Slot(i), lv.Slot(j)
	if v.IsNil() || w.IsNil() {
		return 0, 0, false
	}
	lv.ClearOccupiedPair(i, j)
	out.Append2(v, u, protocol.KindRequest, false, u, w)
	return 1, 0, true
}

// ReceiveBatch handles requests and replies. A request stores the offered
// ids first, then removes up to two uniformly chosen own entries and appends
// them as the reply; a reply just stores the returned ids. Messages of other
// kinds are ignored.
//
//vet:hotpath
func (c *Core) ReceiveBatch(lv *view.View, u peer.ID, pkt protocol.Packet, r *rng.RNG, out *protocol.Outbox) (replied bool, deleted int) {
	switch pkt.Kind {
	case protocol.KindRequest:
		deleted = store(lv, pkt.IDs, r)
		switch d := lv.Outdegree(); {
		case d >= 2:
			i, j, _ := lv.RandomOccupiedPair(r)
			a, b := lv.Slot(i), lv.Slot(j)
			lv.ClearOccupiedPair(i, j)
			out.Append2(pkt.From, u, protocol.KindReply, false, a, b)
			return true, deleted
		case d == 1:
			i, _ := lv.RandomOccupiedSlot(r)
			a := lv.Slot(i)
			lv.Clear(i)
			out.Append1(pkt.From, u, protocol.KindReply, false, a)
			return true, deleted
		}
	case protocol.KindReply:
		deleted = store(lv, pkt.IDs, r)
	}
	return false, deleted
}

// store places ids into uniformly chosen empty slots and returns how many
// did not fit.
func store(lv *view.View, ids []peer.ID, r *rng.RNG) (deleted int) {
	for _, id := range ids {
		if i, ok := lv.RandomEmptySlot(r); ok {
			lv.Set(i, id)
		} else {
			deleted++
		}
	}
	return deleted
}

// CheckView verifies internal view consistency; the shuffle keeps no parity
// or floor invariant (under loss its id population only decays).
func (c *Core) CheckView(lv *view.View) error {
	return lv.CheckInvariants()
}
