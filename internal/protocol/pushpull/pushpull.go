// Package pushpull implements a keep-on-send gossip baseline in the spirit
// of Lpbcast [13] and the protocol of Allavena, Demers, and Hopcroft [2],
// per the taxonomy of Section 3.1 of the paper.
//
// An initiator pushes its own id (reinforcement) and a random entry from its
// view (mixing) to a random neighbor, *keeping* the sent ids. The receiver
// stores the ids, evicting random entries when its view is full. Because
// nothing is deleted on send, the protocol is immune to message loss — but
// every exchange leaves both parties holding the same ids, inducing exactly
// the spatial dependencies the paper's Section 1 describes ("an id that is
// gossiped to a neighbor typically remains in the sender's view"). The base1
// experiment contrasts its dependence level with S&F's.
package pushpull

import (
	"fmt"

	"sendforget/internal/peer"
	"sendforget/internal/protocol"
	"sendforget/internal/rng"
	"sendforget/internal/view"
)

// Core is the per-node push-pull step core implementing protocol.StepCore:
// the keep-on-send push expressed over a single local view. It holds
// parameters only.
type Core struct {
	s int
}

var _ protocol.StepCore = (*Core)(nil)

// NewCore builds a push-pull step core with view size s.
func NewCore(s int) (*Core, error) {
	if s < 2 {
		return nil, fmt.Errorf("pushpull: view size must be >= 2, got %d", s)
	}
	return &Core{s: s}, nil
}

// Name returns "push-pull".
func (c *Core) Name() string { return "push-pull" }

// ViewSize returns s.
func (c *Core) ViewSize() int { return c.s }

// SeedView fills a fresh view with the seed ids (at least one).
func (c *Core) SeedView(seeds []peer.ID) (*view.View, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("pushpull: need at least one seed")
	}
	v := view.New(c.s)
	for i, id := range seeds {
		if i >= c.s {
			break
		}
		v.Set(i, id)
	}
	return v, nil
}

// InitiateBatch pushes [u, w] to a random neighbor, keeping both entries —
// the defining difference from S&F.
//
//vet:hotpath
func (c *Core) InitiateBatch(lv *view.View, u peer.ID, r *rng.RNG, out *protocol.Outbox) (msgs, dups int, ok bool) {
	i, j := lv.RandomPairFast(r)
	v, w := lv.Slot(i), lv.Slot(j)
	if v.IsNil() || w.IsNil() {
		return 0, 0, false
	}
	out.Append2(v, u, protocol.KindGossip, false, u, w)
	return 1, 0, true
}

// ReceiveBatch stores each pushed id into a uniformly chosen empty slot,
// overwriting a uniformly random entry when the view is full — every
// received id is kept. Push-pull never replies; non-gossip kinds are
// ignored.
//
//vet:hotpath
func (c *Core) ReceiveBatch(lv *view.View, u peer.ID, pkt protocol.Packet, r *rng.RNG, out *protocol.Outbox) (replied bool, deleted int) {
	if pkt.Kind != protocol.KindGossip {
		return false, 0
	}
	for _, id := range pkt.IDs {
		if i, ok := lv.RandomEmptySlot(r); ok {
			lv.Set(i, id)
			continue
		}
		lv.Set(r.Intn(lv.Size()), id)
	}
	return false, 0
}

// CheckView verifies internal view consistency; push-pull keeps no parity
// or floor invariant (views only ever gain or recycle ids).
func (c *Core) CheckView(lv *view.View) error {
	return lv.CheckInvariants()
}
