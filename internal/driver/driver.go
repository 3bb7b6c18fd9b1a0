// Package driver is the engine-agnostic transmission discipline shared by
// every execution substrate: the sequential engine and the goroutine-per-node
// cluster route every message through one Router, the sharded tick engine
// through one Router per shard (each rules on the messages addressed to its
// shard's nodes, and their ledgers are summed), so the fault-then-liveness
// rule, the delay calendar and its clock, and the traffic ledger are
// implemented exactly once (PR 3 unified the counting semantics across three
// hand-kept copies; this package deletes the copies).
//
// The discipline, per message: Sends is incremented first, then the fault
// stack rules — drop (model or partition), park in the delay calendar, or
// pass — and a passing message faces the liveness check (a departed
// destination is a dead letter, per the paper: "every message sent to this
// node causes its id to be deleted from the sender's view") before counting
// as a delivery. Parked messages re-enter at drain time, where
// liveness is resolved again (a destination that left while the message was
// in flight dead-letters) but the fault stack is not re-consulted.
//
// The delay calendar is a power-of-two ring of due rounds over one pool of
// chunks, protocol.MaxRun headers each. A round is a chain of chunks, the
// shape of a sorting outbox's lane: parking copies the ruled header into the
// tail chunk of round clock+delay (a payload of more than two ids goes to
// the round's id arena), so a round holds its messages in (due, enqueue)
// order, and a drain hands them out a chunk — a run — at a time. When a
// drain finds a round exhausted, the round's chunks go back to a free list,
// and the parks of the same tick take them again: the pool holds what is in
// flight and at most a part-filled chunk per round, and a warmed-up router
// parks and drains without allocating. The ring does not exist until
// a message parks and doubles when a delay reaches past it. What Due and
// DueBatch hand out aliases the pool and is valid until the next Due or
// DueBatch call.
//
// The package also owns the churn bookkeeping the substrates duplicated:
// collision-free per-incarnation seed derivation (Roster) and the circulant
// bootstrap topology (Circulant, BootstrapDegree).
package driver

import (
	"fmt"

	"sendforget/internal/faults"
	"sendforget/internal/metrics"
	"sendforget/internal/peer"
	"sendforget/internal/protocol"
	"sendforget/internal/rng"
)

// Outcome is the router's per-message ruling.
type Outcome uint8

const (
	// Delivered: the message passed the fault stack and the destination is
	// live; the ledger counted a delivery and the caller performs it.
	Delivered Outcome = iota
	// Dropped: the fault stack dropped the message.
	Dropped
	// Parked: the message entered the delay calendar; it will surface from
	// Due after the assigned number of Tick calls.
	Parked
	// DeadLetter: the destination is not live.
	DeadLetter
)

// Held is one message surfaced from the delay calendar by Due. Msg.IDs
// aliases the calendar and is valid until the next Due or DueBatch call,
// which may release the round the message came due in for later parks to
// reuse. A caller that lets another goroutine drain while it holds the
// message copies the ids out first.
type Held struct {
	To  peer.ID
	Msg protocol.Message
}

// minRing is the calendar's initial length in rounds: room for delays up to
// minRing-1 beside the round being drained.
const minRing = 4

// chunk is the calendar's unit of storage: protocol.MaxRun consecutive
// headers, one run of a drain.
type chunk [protocol.MaxRun]protocol.FlatMsg

// slabChunks is how many chunks the pool takes from the allocator at a time
// (1280 bytes): few enough that the pool never holds more than three chunks
// no round has asked for.
const slabChunks = 4

// blankSlab extends the pool by one slab.
var blankSlab [slabChunks]chunk

// noChunk ends a chain of chunks.
const noChunk = -1

// round is one due round of the calendar: a chain of chunks, each full but
// the last, and an id arena. A round with no messages holds no chunk.
type round struct {
	head, tail int32     // first and last chunk of the chain
	n          int32     // messages parked for the round
	ids        []peer.ID // payloads of more than two ids, at the offsets their headers keep
}

// Router rules on messages for one substrate and is the single writer of
// the traffic ledger (the counting semantics documented on metrics.Traffic):
// every routed message counts under Sends first and then lands in exactly
// one of Losses, DeadLetters, or Deliveries, possibly after a stay in the
// delay calendar (Delayed). Substrates read snapshots through Traffic. It is
// not safe for concurrent use: each substrate confines a router to one
// goroutine at a time — the engine is single-threaded, the network holds its
// mutex, a shard of the sharded engine is run by the one goroutine that
// claimed its job in a phase and read by the gate holder between phases — a
// contract the types (a worker can name only its job's shard) and the
// sharedguard analyzer enforce on every access rather than one left to
// reviewer memory.
type Router struct {
	cond *faults.Conditions
	rng  *rng.RNG
	live func(peer.ID) bool

	ledger metrics.Traffic
	clock  int

	// The delay calendar: round d is ring[d&(len(ring)-1)], the length zero
	// or a power of two. base is the oldest round in use — being drained,
	// or drained and still lent to the caller — and at the number of its
	// messages handed out, the next of them in chunk cur. Every parked
	// message is due in [base, base+len(ring)), so no two rounds in use
	// share a slot. pending counts the messages not yet handed out.
	ring    []round
	base    int
	at, cur int32
	pending int

	// The chunk pool: chunk c is slabs[c/slabChunks][c%slabChunks], link[c]
	// the chunk after it in its round's chain or on the free list, which
	// starts at free. len(link) chunks have been handed out at least once.
	slabs [][]chunk
	link  []int32
	free  int32
}

// NewRouter builds a router ruling through a fault-injection stack. The rng
// must be the substrate's own decision stream — the router draws from it in
// call order, so substrates that interleave other draws on the same stream
// (the sequential engine) keep their exact historical draw sequence; a router
// that only ever rules through a decider (RouteBy) takes nil. live
// reports whether a destination can currently receive; it is called
// synchronously under whatever serialization the caller holds.
func NewRouter(cond *faults.Conditions, r *rng.RNG, live func(peer.ID) bool) *Router {
	return &Router{cond: cond, rng: r, live: live, free: noChunk}
}

// Route rules on one message addressed to to, consulting the fault stack
// with a per-message decision. A message that parks is copied into the
// calendar (delayed messages outlive the caller's buffers); no path
// allocates once the chunk pool has reached the traffic's high-water mark.
//
//vet:hotpath
func (rt *Router) Route(to peer.ID, msg protocol.Message) Outcome {
	m := protocol.FlatMsg{To: to, From: msg.From, Kind: msg.Kind, Dup: msg.Dup}
	return rt.ruleVerdict(rt.cond.Decide(msg.From, to, rt.rng), &m, msg.IDs, rt.live(to))
}

// RouteIn is Route under an open fault-stack session: a loop that rules on
// many messages locks the stack once instead of once per message. The caller
// owns the session; the router only draws a verdict from it.
//
//vet:hotpath
func (rt *Router) RouteIn(ses *faults.Session, to peer.ID, msg protocol.Message) Outcome {
	m := protocol.FlatMsg{To: to, From: msg.From, Kind: msg.Kind, Dup: msg.Dup}
	return rt.ruleVerdict(ses.Decide(msg.From, to, rt.rng), &m, msg.IDs, rt.live(to))
}

// RouteBy is Route through a decider attached to the stack — how a shard of
// the sharded engine rules on the messages addressed to it, in parallel with
// the other shards: no lock, and the decider's stream, not the router's (such
// a router is built with a nil one). The message is ruled on where it lies, m
// a header of some outbox and ids its ids (Outbox.MsgIDs): nothing of it is
// copied unless it parks, so nothing of it is held in registers, or spilled,
// across the decision. live is whether m.To can receive, read by the caller
// from the set the router's callback reads, so that the common message makes
// no dynamic call: under a plain configuration (faults.Decider.Plain, one
// static call for the trial) the ledger and the liveness are settled here.
//
//vet:hotpath
func (rt *Router) RouteBy(d *faults.Decider, m *protocol.FlatMsg, ids []peer.ID, live bool) Outcome {
	lost, plain := d.Plain()
	if !plain {
		return rt.ruleVerdict(d.Decide(m.From, m.To), m, ids, live)
	}
	rt.ledger.Sends++
	if lost {
		rt.ledger.Losses++
		return Dropped
	}
	return rt.admit(live)
}

// ruleVerdict counts the attempt and applies a fault verdict: drop (with
// subset accounting), park, or fall through to the liveness of the
// destination, live. Of the header it reads the addresses, the kind and the
// duplicate mark; the ids are the caller's to locate.
func (rt *Router) ruleVerdict(v faults.Verdict, m *protocol.FlatMsg, ids []peer.ID, live bool) Outcome {
	rt.ledger.Sends++
	if v.Drop != faults.DropNone {
		rt.ledger.Losses++
		if v.Drop == faults.DropPartition {
			rt.ledger.PartitionDrops++
		}
		return Dropped
	}
	if v.Delay > 0 {
		rt.ledger.Delayed++
		rt.park(rt.clock+v.Delay, m, ids)
		return Parked
	}
	return rt.admit(live)
}

// park copies the message into the tail chunk of round due, chaining a
// chunk to the round when its last one is full (or it has none). The span
// the ring must cover starts at base: a delay that reaches the slot of the
// round a drain is reading grows the ring instead.
func (rt *Router) park(due int, m *protocol.FlatMsg, ids []peer.ID) {
	if len(ids) > protocol.MaxIDs {
		panic("driver: park of more than protocol.MaxIDs (65535) ids")
	}
	if rt.ring == nil {
		rt.base = rt.clock
	}
	if span := due - rt.base + 1; span > len(rt.ring) {
		rt.grow(span)
	}
	slot := due & (len(rt.ring) - 1)
	r := &rt.ring[slot]
	if r.n%protocol.MaxRun == 0 {
		c := rt.take()
		if r.n == 0 {
			r.head = c
		} else {
			rt.link[r.tail] = c
		}
		r.tail = c
	}
	h := &rt.chunk(r.tail)[r.n%protocol.MaxRun]
	*h = protocol.FlatMsg{To: m.To, From: m.From, IDLen: uint16(len(ids)), Kind: m.Kind, Dup: m.Dup}
	if len(ids) <= 2 {
		copy(h.IDs[:], ids)
	} else {
		h.IDs[0] = peer.ID(len(r.ids))
		rt.ring[slot].ids = append(rt.ring[slot].ids, ids...)
	}
	r.n++
	rt.pending++
}

// take hands out a chunk for a round's chain: the head of the free list, or
// the next never-used chunk of the pool, which takes a slab from the
// allocator when its last one is used up.
func (rt *Router) take() int32 {
	if c := rt.free; c != noChunk {
		rt.free = rt.link[c]
		return c
	}
	c := int32(len(rt.link))
	if int(c) == len(rt.slabs)*slabChunks {
		rt.slabs = append(rt.slabs, nil)
		rt.slabs[len(rt.slabs)-1] = append(rt.slabs[len(rt.slabs)-1], blankSlab[:]...)
	}
	rt.link = append(rt.link, noChunk)
	return c
}

// chunk returns chunk c of the pool.
func (rt *Router) chunk(c int32) *chunk {
	return &rt.slabs[c/slabChunks][c%slabChunks]
}

// release returns an exhausted round's chunks to the free list, splicing its
// whole chain in front, and empties its arena, keeping the capacity.
func (rt *Router) release(r *round) {
	if r.n > 0 {
		rt.link[r.tail] = rt.free
		rt.free = r.head
	}
	r.n = 0
	r.ids = r.ids[:0]
}

// grow doubles the ring until it spans span rounds and moves every round —
// the one being drained included, with the drain's place in it — to its
// slot under the new length. Rounds move as records: their chunks, and
// whatever a caller still aliases, stay where they are.
func (rt *Router) grow(span int) {
	old := len(rt.ring)
	n := max(old, minRing)
	for n < span {
		n <<= 1
	}
	for len(rt.ring) < n {
		rt.ring = append(rt.ring, round{})
	}
	// A round's new slot is its old slot plus a multiple of the old length:
	// either where it already is, or a fresh slot no other round maps to.
	for d := rt.base; d < rt.base+old; d++ {
		if from, to := d&(old-1), d&(n-1); from != to {
			rt.ring[to], rt.ring[from] = rt.ring[from], rt.ring[to]
		}
	}
}

// admit is the liveness half of the discipline, for a destination that is
// live or not: dead letter or delivery, counted exactly once.
func (rt *Router) admit(live bool) Outcome {
	if !live {
		rt.ledger.DeadLetters++
		return DeadLetter
	}
	rt.ledger.Deliveries++
	return Delivered
}

// Tick advances the delay-calendar clock one round. With nothing pending, a
// base round left behind by drains that stopped (a substrate drains only
// while something is in flight) moves up to the clock with what it still
// lends out, so the next park does not grow the ring across the idle rounds.
func (rt *Router) Tick() {
	rt.clock++
	if rt.pending == 0 && rt.ring != nil && rt.base < rt.clock {
		from, to := rt.base&(len(rt.ring)-1), rt.clock&(len(rt.ring)-1)
		rt.ring[to], rt.ring[from] = rt.ring[from], rt.ring[to]
		rt.base = rt.clock
	}
}

// dueRound returns the oldest round with messages due by the current clock
// still to hand out, releasing the exhausted rounds before it — the one the
// previous call handed out the last of included; nil when nothing further
// is due.
func (rt *Router) dueRound() *round {
	for rt.ring != nil && rt.base <= rt.clock {
		r := &rt.ring[rt.base&(len(rt.ring)-1)]
		if rt.at < r.n {
			if rt.at == 0 {
				rt.cur = r.head
			}
			return r
		}
		rt.release(r)
		rt.base++
		rt.at = 0
	}
	return nil
}

// Due hands out the next delayed message due by the current clock, in (due,
// enqueue) order; ok is false when nothing further is due. The returned
// message has not been accounted beyond Delayed: the caller resolves it
// with Deliverable at drain time.
func (rt *Router) Due() (Held, bool) {
	r := rt.dueRound()
	if r == nil {
		return Held{}, false
	}
	m := &rt.chunk(rt.cur)[rt.at%protocol.MaxRun]
	rt.at++
	if rt.at%protocol.MaxRun == 0 && rt.at < r.n {
		rt.cur = rt.link[rt.cur]
	}
	rt.pending--
	return Held{To: m.To, Msg: protocol.Message{Kind: m.Kind, From: m.From, IDs: msgIDs(m, r.ids), Dup: m.Dup}}, true
}

// DueBatch is Due for a whole round at once: every remaining message of the
// oldest due round, in (due, enqueue) order, as a walk over its runs; ok is
// false when nothing further is due. The runs are read-only and have Held's
// lifetime, and each message is still to be resolved with Deliverable.
//
//vet:hotpath
func (rt *Router) DueBatch() (runs DueRuns, ok bool) {
	r := rt.dueRound()
	if r == nil {
		return DueRuns{}, false
	}
	runs = DueRuns{rt: rt, ids: r.ids, chunk: rt.cur, off: rt.at % protocol.MaxRun, left: r.n - rt.at}
	rt.pending -= int(runs.left)
	rt.at = r.n
	return runs, true
}

// DueRuns walks what one DueBatch call handed out, run by run: a run is the
// messages that lie consecutively in one chunk of the calendar, at most
// protocol.MaxRun.
type DueRuns struct {
	rt        *Router
	ids       []peer.ID // the round's id arena
	chunk     int32
	off, left int32
}

// Next returns the next run, nil after the last. The slice aliases the
// calendar and must not be written or retained past the next Due or
// DueBatch call.
//
//vet:hotpath
func (d *DueRuns) Next() []protocol.FlatMsg {
	if d.left == 0 {
		return nil
	}
	n := min(d.left, protocol.MaxRun-d.off)
	run := d.rt.chunk(d.chunk)[d.off : d.off+n]
	d.left -= n
	d.off = 0
	if d.left > 0 {
		d.chunk = d.rt.link[d.chunk]
	}
	return run
}

// MsgIDs returns the ids of message m of a run: inline in the header, or in
// the round's arena. The slice has the run's lifetime.
//
//vet:hotpath
func (d *DueRuns) MsgIDs(m *protocol.FlatMsg) []peer.ID { return msgIDs(m, d.ids) }

// msgIDs locates a parked header's ids: inline, or at the arena offset the
// header keeps in IDs[0].
func msgIDs(m *protocol.FlatMsg, arena []peer.ID) []peer.ID {
	if m.IDLen <= 2 {
		return m.IDs[:m.IDLen]
	}
	off := int(m.IDs[0])
	return arena[off : off+int(m.IDLen)]
}

// Deliverable resolves drain-time liveness for a message surfaced by Due or
// DueBatch, counting the dead letter or the delivery. The fault stack is not
// re-consulted: the message already passed it when it parked.
func (rt *Router) Deliverable(to peer.ID) bool {
	return rt.admit(rt.live(to)) == Delivered
}

// Pending returns the number of messages parked in the delay calendar.
func (rt *Router) Pending() int { return rt.pending }

// Traffic returns a snapshot of the traffic ledger.
func (rt *Router) Traffic() metrics.Traffic { return rt.ledger }

// AddTraffic adds the router's ledger to sum, field by field: a substrate
// that keeps one router per shard reports the total.
func (rt *Router) AddTraffic(sum *metrics.Traffic) {
	sum.Sends += rt.ledger.Sends
	sum.Losses += rt.ledger.Losses
	sum.Deliveries += rt.ledger.Deliveries
	sum.DeadLetters += rt.ledger.DeadLetters
	sum.Delayed += rt.ledger.Delayed
	sum.PartitionDrops += rt.ledger.PartitionDrops
}

// Roster tracks per-node incarnations and derives each activation's RNG
// seed — the collision-free splitmix derivation both cluster flavors
// previously kept privately (the old additive scheme made a rejoining node
// reuse another node's initial stream; see PR 3).
type Roster struct {
	seed         int64
	incarnations []int32
}

// NewRoster builds a roster for n nodes over the substrate seed.
func NewRoster(seed int64, n int) *Roster {
	return &Roster{seed: seed, incarnations: make([]int32, n)}
}

// SeedFor derives node u's RNG seed for its current incarnation.
func (ro *Roster) SeedFor(u peer.ID) rng.Seed {
	return rng.DeriveSeed(ro.seed, int64(u), int64(ro.incarnations[u]))
}

// Bump advances node u's incarnation; the next SeedFor draws a fresh
// stream. Substrates call it on every rejoin.
func (ro *Roster) Bump(u peer.ID) { ro.incarnations[u]++ }

// Circulant fills dst with node u's bootstrap seeds in the circulant graph
// over an n-node universe — u points at u+1, ..., u+len(dst) (mod n), the
// weakly connected, degree-regular initial overlay Section 6.1 assumes.
func Circulant(u peer.ID, n int, dst []peer.ID) {
	for k := range dst {
		dst[k] = peer.ID((int(u) + k + 1) % n)
	}
}

// BootstrapDegree resolves the circulant bootstrap outdegree every
// substrate seeds its nodes with: requested, or when that is zero an even
// value of about half the view size s, clamped to
// [2, n-1] (and kept even under the clamp; at n = 2 there is no such value,
// and the caller must request one). The result must lie in [1, n-1]; how
// many of the seeds a protocol keeps is its SeedView's rule.
func BootstrapDegree(s, n, requested int) (int, error) {
	d := requested
	if d == 0 {
		d = s / 2
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
			if d < 1 {
				return 0, fmt.Errorf("driver: the default init degree has no even value below n=%d; set InitDegree", n)
			}
		}
	}
	if d < 1 || d >= n {
		return 0, fmt.Errorf("driver: init degree %d must be in [1, n-1] for n=%d", d, n)
	}
	return d, nil
}
