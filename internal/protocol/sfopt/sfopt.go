// Package sfopt implements the three optimizations Section 5 of the paper
// lists but leaves to future work, as switchable variants of S&F:
//
//  1. Undeletion — "instead of removing sent ids from the view, the
//     protocol could only mark them for deletion and then use undeletion
//     instead of duplication": cleared ids go to a per-node graveyard, and
//     a node at the duplication floor restores graveyard ids instead of
//     keeping (duplicating) the live entries, avoiding the sender/receiver
//     correlation that duplication creates.
//  2. ReplaceWhenFull — "instead of discarding received ids when the view
//     is full, the protocol could replace some existing view entries".
//  3. BatchK — "more than two ids could be sent in a message": each action
//     moves K ids (K even), reducing per-id message overhead.
//
// The abl3 experiment measures what each buys and costs relative to the
// analyzed baseline.
package sfopt

import (
	"fmt"

	"sendforget/internal/peer"
	"sendforget/internal/protocol"
	"sendforget/internal/rng"
	"sendforget/internal/view"
)

// Options parameterizes the variant protocol. The zero values of the
// optimization fields yield exactly the baseline S&F semantics.
type Options struct {
	// S and DL are the view size and duplication threshold, as in the
	// baseline protocol.
	S, DL int
	// BatchK is the number of ids moved per action (even, >= 2; the first
	// is the sender's own id). Default 2 (the baseline [u, w]).
	BatchK int
	// ReplaceWhenFull overwrites random occupied entries instead of
	// deleting ids that do not fit.
	ReplaceWhenFull bool
	// Undelete compensates at the dL floor by restoring recently cleared
	// ids from a graveyard of the last S ids cleared, instead of
	// duplicating live entries.
	Undelete bool
}

func (o Options) validate() error {
	if o.S < 6 || o.S%2 != 0 {
		return fmt.Errorf("sfopt: view size must be even >= 6, got %d", o.S)
	}
	if o.DL < 0 || o.DL > o.S-6 || o.DL%2 != 0 {
		return fmt.Errorf("sfopt: dL must be even in [0, s-6], got %d", o.DL)
	}
	if o.BatchK != 0 && (o.BatchK < 2 || o.BatchK%2 != 0 || o.BatchK > o.S) {
		return fmt.Errorf("sfopt: batch size must be even in [2, s], got %d", o.BatchK)
	}
	return nil
}

// variantName identifies the active variant combination.
func (o Options) variantName() string {
	name := "s&f-opt"
	if o.BatchK != 0 && o.BatchK != 2 {
		name += fmt.Sprintf("+batch%d", o.BatchK)
	}
	if o.ReplaceWhenFull {
		name += "+replace"
	}
	if o.Undelete {
		name += "+undelete"
	}
	return name
}

// Counters tallies the variant events no step result carries: how often
// each optimization fired. The events every protocol shares (sends, floor
// sends, deleted ids) are in the driver's protocol.Counters.
type Counters struct {
	Undeletions int // floor sends compensated from the graveyard, not by keeping the entries
	Replaced    int // received ids stored by overwriting an occupied slot
}

// Core is the per-node step core of the optimized S&F variants,
// implementing protocol.PerNode. Unlike the stateless baselines it carries
// per-node protocol state (the undeletion graveyard, the variant tally), so
// cores are never shared between nodes. Not safe for concurrent use.
type Core struct {
	opts     Options
	counters Counters
	// The graveyard is a bounded FIFO ring over a preallocated buffer:
	// bury evicts the oldest entry on overflow, exhume pops the most
	// recent. A ring rather than a slice so the steps stay
	// allocation-free.
	grave       []peer.ID
	gHead, gLen int
	// The step scratch of a batch larger than stackBatch, len BatchK each;
	// nil otherwise, when the initiate step keeps its scratch on the stack.
	bigSlots []int
	bigIDs   []peer.ID
}

// stackBatch is the largest BatchK whose initiate-step scratch — the
// selected slots and the payload — lives in the step's stack frame, so that
// a core is one heap object (two with Undelete's graveyard).
const stackBatch = 8

var _ protocol.PerNode = (*Core)(nil)

// PerNode marks the core as one node's own.
func (c *Core) PerNode() {}

// NewCore builds a variant step core.
func NewCore(opts Options) (*Core, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if opts.BatchK == 0 {
		opts.BatchK = 2
	}
	c := &Core{opts: opts}
	if opts.BatchK > stackBatch {
		c.bigSlots, c.bigIDs = make([]int, opts.BatchK), make([]peer.ID, opts.BatchK)
	}
	if opts.Undelete {
		c.grave = make([]peer.ID, opts.S)
	}
	return c, nil
}

// Name identifies the active variant combination.
func (c *Core) Name() string { return c.opts.variantName() }

// ViewSize returns s.
func (c *Core) ViewSize() int { return c.opts.S }

// Counters returns a copy of the core's variant tally.
func (c *Core) Counters() Counters { return c.counters }

// SeedView fills the empty view lv with the seed ids, truncated to an even
// count of at most s entries (the variants keep S&F's parity discipline).
func (c *Core) SeedView(lv *view.View, seeds []peer.ID) error {
	k := min(len(seeds), c.opts.S) &^ 1
	if k < 2 {
		return fmt.Errorf("sfopt: need at least 2 usable seeds, got %d", k)
	}
	lv.Seed(seeds[:k])
	return nil
}

// chooseDistinct fills dst with distinct uniformly chosen values in [0, n)
// by rejection sampling: uniform over ordered distinct len(dst)-tuples with
// no allocation. len(dst) <= n is guaranteed by the BatchK <= S option
// bound, so the loop terminates.
func chooseDistinct(r *rng.RNG, n int, dst []int) {
	for i := range dst {
	redraw:
		v := r.Intn(n)
		for _, prev := range dst[:i] {
			if prev == v {
				goto redraw
			}
		}
		dst[i] = v
	}
}

// InitiateBatch selects BatchK distinct slots; the first non-empty rule of
// the baseline generalizes to all selected slots being non-empty (a single
// empty selection is a self-loop, keeping the analysis clean). Above the
// floor the selected entries are buried and cleared; at the floor they are
// either refilled from the graveyard (Undelete) or kept (duplication). The
// message is [u, ids[1:]...] to ids[0], flagged Dup when sent at the floor.
//
//vet:hotpath
func (c *Core) InitiateBatch(lv *view.View, u peer.ID, r *rng.RNG, out *protocol.Outbox) (msgs, dups int, ok bool) {
	k := c.opts.BatchK
	var slotBuf [stackBatch]int
	var idBuf [stackBatch]peer.ID
	slots, payload := slotBuf[:], idBuf[:]
	if k > stackBatch {
		slots, payload = c.bigSlots, c.bigIDs
	}
	slots, payload = slots[:k], payload[:k]
	chooseDistinct(r, lv.Size(), slots)
	for i, slot := range slots {
		id := lv.Slot(slot)
		if id.IsNil() {
			return 0, 0, false
		}
		payload[i] = id
	}
	target := payload[0]
	atFloor := lv.Outdegree() <= c.opts.DL
	switch {
	case !atFloor:
		for _, slot := range slots {
			c.bury(lv.Slot(slot))
			lv.Clear(slot)
		}
	case c.opts.Undelete && c.gLen >= k:
		// Optimization 1: clear the sent entries but refill from the
		// graveyard — fresh-ish ids instead of correlated copies.
		for _, slot := range slots {
			lv.Clear(slot)
		}
		for i := 0; i < k; i++ {
			id := c.exhume()
			if empty, ok := lv.RandomEmptySlot(r); ok {
				lv.Set(empty, id)
			}
		}
		c.counters.Undeletions++
	default:
		// Baseline duplication: keep the entries.
	}
	// Overwrite the target slot of the payload scratch with the sender id.
	payload[0] = u
	if atFloor {
		dups = 1
	}
	if k == 2 {
		out.Append2(target, u, protocol.KindGossip, atFloor, u, payload[1])
	} else {
		out.Append(target, u, protocol.KindGossip, atFloor, payload...)
	}
	return 1, dups, true
}

// ReceiveBatch stores each id into a uniformly chosen empty slot, replacing
// (with burial) or deleting on overflow per the options. Parity of the
// outdegree is preserved: the number of empty slots is even, so the count
// stored into empties is even whenever the batch is. Non-gossip kinds are
// ignored.
//
//vet:hotpath
func (c *Core) ReceiveBatch(lv *view.View, u peer.ID, pkt protocol.Packet, r *rng.RNG, out *protocol.Outbox) (replied bool, deleted int) {
	if pkt.Kind != protocol.KindGossip {
		return false, 0
	}
	for _, id := range pkt.IDs {
		if empty, ok := lv.RandomEmptySlot(r); ok {
			lv.Set(empty, id)
			continue
		}
		if c.opts.ReplaceWhenFull {
			slot := r.Intn(lv.Size())
			c.bury(lv.Slot(slot))
			lv.Set(slot, id)
			c.counters.Replaced++
			continue
		}
		deleted++
	}
	return false, deleted
}

// bury pushes id onto the graveyard ring (bounded FIFO: the oldest entry is
// evicted on overflow).
func (c *Core) bury(id peer.ID) {
	if !c.opts.Undelete || id.IsNil() {
		return
	}
	size := len(c.grave)
	if c.gLen == size {
		c.gHead = (c.gHead + 1) % size
		c.gLen--
	}
	c.grave[(c.gHead+c.gLen)%size] = id
	c.gLen++
}

// exhume pops the most recently buried id.
func (c *Core) exhume() peer.ID {
	c.gLen--
	return c.grave[(c.gHead+c.gLen)%len(c.grave)]
}

// CheckView verifies even outdegree within [0, s]. The variant relaxes the
// hard dL floor only in that undeletion may briefly leave fewer live
// entries if the graveyard ran dry mid-refill; parity must still hold.
func (c *Core) CheckView(lv *view.View) error {
	if err := lv.CheckInvariants(); err != nil {
		return err
	}
	if lv.Outdegree()%2 != 0 {
		return fmt.Errorf("sfopt: odd outdegree %d", lv.Outdegree())
	}
	if lv.Outdegree() > c.opts.S {
		return fmt.Errorf("sfopt: outdegree %d exceeds s", lv.Outdegree())
	}
	return nil
}
