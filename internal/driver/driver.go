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
// stack rules — drop (model, per-link, or partition), park in the delay
// calendar, or pass — and a passing message faces the liveness check (a
// departed destination is a dead letter, per the paper: "every message sent
// to this node causes its id to be deleted from the sender's view") before
// counting as a delivery. Parked messages re-enter at drain time, where
// liveness is resolved again (a destination that left while the message was
// in flight dead-letters) but the fault stack is not re-consulted.
//
// The delay calendar is a power-of-two ring of protocol.Outbox buckets, one
// per due round: parking is one Outbox.Append into the bucket of round
// clock+delay, so append order inside a bucket is (due, enqueue) order and
// the arenas are reused round after round — a warmed-up router parks and
// drains without allocating. The ring does not exist until a message parks
// and doubles when a delay reaches past it. A drained message (Held, or a
// DueBatch bucket) aliases its bucket, which nothing parks into until the
// next Tick.
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
// aliases the bucket of the round the message came due in and is valid until
// the next Tick (for a round drained late, after several Ticks: until Due
// moves on to the following round). A caller that lets other goroutines
// Tick while it holds the message copies the ids out first.
type Held struct {
	To  peer.ID
	Msg protocol.Message
}

// minRing is the calendar's initial length in rounds: room for delays up to
// minRing-1 beside the bucket being drained.
const minRing = 4

// Router rules on messages for one substrate and is the single writer of
// the traffic ledger (the counting semantics documented on metrics.Traffic):
// every routed message counts under Sends first and then lands in exactly
// one of Losses, DeadLetters, or Deliveries, possibly after a stay in the
// delay calendar (Delayed). Substrates read snapshots through Traffic. It is
// not safe for concurrent use: each substrate confines a router to one
// goroutine at a time — the engine is single-threaded, the network holds its
// mutex, a shard of the sharded engine is run by one worker per barrier phase
// and read by the gate holder between phases — a contract the sharedguard and
// shardconfine analyzers enforce on every access rather than one left to
// reviewer memory.
type Router struct {
	cond *faults.Conditions
	rng  *rng.RNG
	live func(peer.ID) bool

	ledger metrics.Traffic
	clock  int

	// The delay calendar: round d's bucket is ring[d&(len(ring)-1)], the
	// length zero or a power of two. head is the oldest round whose bucket
	// is in use — being drained, or drained and still aliased by the caller
	// — and next the drain cursor inside it. Every parked message is due in
	// [head, head+len(ring)), so no two rounds in use share a bucket.
	// pending counts the messages not yet handed out.
	ring    []protocol.Outbox
	head    int
	next    int
	pending int
}

// NewRouter builds a router ruling through a fault-injection stack. The rng
// must be the substrate's own decision stream — the router draws from it in
// call order, so substrates that interleave other draws on the same stream
// (the sequential engine) keep their exact historical draw sequence; a router
// that only ever rules through a decider (RouteBy) takes nil. live
// reports whether a destination can currently receive; it is called
// synchronously under whatever serialization the caller holds.
func NewRouter(cond *faults.Conditions, r *rng.RNG, live func(peer.ID) bool) *Router {
	return &Router{cond: cond, rng: r, live: live}
}

// Route rules on one message addressed to to, consulting the fault stack
// with a per-message decision. A message that parks is copied into its
// calendar bucket (delayed messages outlive the caller's buffers); no path
// allocates once the buckets have reached their steady-state capacity.
//
//vet:hotpath
func (rt *Router) Route(to peer.ID, msg protocol.Message) Outcome {
	m := protocol.FlatMsg{To: to, From: msg.From, Kind: msg.Kind, Dup: msg.Dup}
	return rt.ruleVerdict(rt.cond.Decide(msg.From, to, rt.rng), &m, msg.IDs)
}

// RouteIn is Route under an open fault-stack session: a loop that rules on
// many messages locks the stack once instead of once per message. The caller
// owns the session; the router only draws a verdict from it.
//
//vet:hotpath
func (rt *Router) RouteIn(ses *faults.Session, to peer.ID, msg protocol.Message) Outcome {
	m := protocol.FlatMsg{To: to, From: msg.From, Kind: msg.Kind, Dup: msg.Dup}
	return rt.ruleVerdict(ses.Decide(msg.From, to, rt.rng), &m, msg.IDs)
}

// RouteBy is Route through a decider attached to the stack — how a shard of
// the sharded engine rules on the messages addressed to it, in parallel with
// the other shards: no lock, and the decider's stream, not the router's (such
// a router is built with a nil one). The message is ruled on where it lies, m
// a header of some outbox and ids its ids (Outbox.MsgIDs): nothing of it is
// copied unless it parks, so nothing of it is held in registers, or spilled,
// across the decision.
//
//vet:hotpath
func (rt *Router) RouteBy(d *faults.Decider, m *protocol.FlatMsg, ids []peer.ID) Outcome {
	return rt.ruleVerdict(d.Decide(m.From, m.To), m, ids)
}

// ruleVerdict counts the attempt and applies a fault verdict: drop (with
// subset accounting), park, or fall through to the liveness check. Of the
// header it reads the addresses, the kind and the duplicate mark; the ids are
// the caller's to locate.
func (rt *Router) ruleVerdict(v faults.Verdict, m *protocol.FlatMsg, ids []peer.ID) Outcome {
	rt.ledger.Sends++
	if v.Drop != faults.DropNone {
		rt.ledger.Losses++
		switch v.Drop {
		case faults.DropLink:
			rt.ledger.LinkLosses++
		case faults.DropPartition:
			rt.ledger.PartitionDrops++
		}
		return Dropped
	}
	if v.Delay > 0 {
		rt.ledger.Delayed++
		rt.park(rt.clock+v.Delay, m, ids)
		return Parked
	}
	return rt.deliverable(m.To)
}

// park appends the message to the bucket of round due. The span the ring
// must cover starts at head: a delay equal to the ring length grows the ring
// instead of landing in the bucket a drain is reading.
func (rt *Router) park(due int, m *protocol.FlatMsg, ids []peer.ID) {
	if rt.ring == nil {
		rt.head = rt.clock
	}
	if span := due - rt.head + 1; span > len(rt.ring) {
		rt.grow(span)
	}
	rt.ring[due&(len(rt.ring)-1)].Append(m.To, m.From, m.Kind, m.Dup, ids...)
	rt.pending++
}

// grow doubles the ring until it spans span rounds and moves every round's
// bucket — the one being drained included — to its slot under the new
// length. Buckets move as headers: the arenas, and the ids a caller still
// aliases, stay where they are.
func (rt *Router) grow(span int) {
	old := len(rt.ring)
	n := max(old, minRing)
	for n < span {
		n <<= 1
	}
	for len(rt.ring) < n {
		rt.ring = append(rt.ring, protocol.Outbox{})
	}
	// A round's new slot is its old slot plus a multiple of the old length:
	// either where it already is, or a fresh slot no other round maps to.
	for d := rt.head; d < rt.head+old; d++ {
		if from, to := d&(old-1), d&(n-1); from != to {
			rt.ring[to], rt.ring[from] = rt.ring[from], rt.ring[to]
		}
	}
}

// deliverable is the liveness half of the discipline: dead letter or
// delivery, counted exactly once.
func (rt *Router) deliverable(to peer.ID) Outcome {
	if !rt.live(to) {
		rt.ledger.DeadLetters++
		return DeadLetter
	}
	rt.ledger.Deliveries++
	return Delivered
}

// Tick advances the delay-calendar clock one round, ending the lifetime of
// everything the previous round's drain handed out.
func (rt *Router) Tick() { rt.clock++ }

// dueBucket returns the oldest bucket with messages due by the current clock
// still to hand out (from index rt.next on), releasing the drained buckets
// of earlier rounds on the way; nil when nothing further is due.
func (rt *Router) dueBucket() *protocol.Outbox {
	for rt.ring != nil {
		b := &rt.ring[rt.head&(len(rt.ring)-1)]
		if rt.next < len(b.Msgs) {
			return b
		}
		if rt.head == rt.clock {
			break
		}
		b.Reset()
		rt.head++
		rt.next = 0
	}
	return nil
}

// Due hands out the next delayed message due by the current clock, in (due,
// enqueue) order; ok is false when nothing further is due. The returned
// message has not been accounted beyond Delayed: the caller resolves it
// with Deliverable at drain time.
func (rt *Router) Due() (Held, bool) {
	b := rt.dueBucket()
	if b == nil {
		return Held{}, false
	}
	m := &b.Msgs[rt.next]
	rt.next++
	rt.pending--
	return Held{To: m.To, Msg: protocol.Message{Kind: m.Kind, From: m.From, IDs: b.MsgIDs(m), Dup: m.Dup}}, true
}

// DueBatch is Due for a whole round at once: every remaining message of the
// oldest due round, as ob.Msgs[from:] of its bucket in (due, enqueue) order;
// ob is nil when nothing further is due. The bucket is read-only and has
// Held's lifetime, and each message is still to be resolved with
// Deliverable.
//
//vet:hotpath
func (rt *Router) DueBatch() (ob *protocol.Outbox, from int) {
	b := rt.dueBucket()
	if b == nil {
		return nil, 0
	}
	from = rt.next
	rt.pending -= len(b.Msgs) - from
	rt.next = len(b.Msgs)
	return b, from
}

// Deliverable resolves drain-time liveness for a message surfaced by Due or
// DueBatch, counting the dead letter or the delivery. The fault stack is not
// re-consulted: the message already passed it when it parked.
func (rt *Router) Deliverable(to peer.ID) bool {
	return rt.deliverable(to) == Delivered
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
	sum.LinkLosses += rt.ledger.LinkLosses
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
func (ro *Roster) SeedFor(u peer.ID) int64 {
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
// value of about half the view size of the cores f builds, clamped to
// [2, n-1] (and kept even under the clamp). The result must lie in
// [1, n-1]; how many of the seeds a protocol keeps is its SeedView's rule.
func BootstrapDegree(f protocol.CoreFactory, n, requested int) (int, error) {
	d := requested
	if d == 0 {
		probe, err := f()
		if err != nil {
			return 0, fmt.Errorf("driver: core factory: %w", err)
		}
		d = probe.ViewSize() / 2
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
	}
	if d < 1 || d >= n {
		return 0, fmt.Errorf("driver: init degree %d must be in [1, n-1] for n=%d", d, n)
	}
	return d, nil
}
