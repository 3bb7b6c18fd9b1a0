// Package driver is the engine-agnostic transmission discipline shared by
// every execution substrate: the sequential engine, the goroutine-per-node
// cluster, and the sharded tick engine all route messages through one
// Router, so the fault-then-liveness rule, the delay-queue clock, and the
// traffic ledger are implemented exactly once (PR 3 unified the counting
// semantics across three hand-kept copies; this package deletes the
// copies).
//
// The discipline, per message: Sends is incremented first, then the fault
// stack rules — drop (model, per-link, or partition), park in the delay
// queue, or pass — and a passing message faces the liveness check (a
// departed destination is a dead letter, per the paper: "every message sent
// to this node causes its id to be deleted from the sender's view") before
// counting as a delivery. Parked messages re-enter at drain time, where
// liveness is resolved again (a destination that left while the message was
// in flight dead-letters) but the fault stack is not re-consulted.
//
// The package also owns the churn bookkeeping the substrates duplicated:
// collision-free per-incarnation seed derivation (Roster) and the circulant
// bootstrap topology (Circulant, BootstrapDegree).
package driver

import (
	"container/heap"
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
	// Parked: the message entered the delay queue; it will surface from
	// Due after the assigned number of Tick calls.
	Parked
	// DeadLetter: the destination is not live.
	DeadLetter
)

// Held is one message surfaced from the delay queue by Due. Msg.IDs is a
// copy owned by the router's queue entry; callers may retain it until the
// next Due call.
type Held struct {
	To  peer.ID
	Msg protocol.Message
}

// parked is one delay-queue entry.
type parked struct {
	due int // clock value at which the message is deliverable
	seq int // enqueue order, for deterministic equal-due drains
	to  peer.ID
	msg protocol.Message
}

// parkedQueue is a min-heap on (due, seq).
type parkedQueue []parked

func (q parkedQueue) Len() int { return len(q) }
func (q parkedQueue) Less(i, j int) bool {
	if q[i].due != q[j].due {
		return q[i].due < q[j].due
	}
	return q[i].seq < q[j].seq
}
func (q parkedQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *parkedQueue) Push(x any)   { *q = append(*q, x.(parked)) }
func (q *parkedQueue) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// Router rules on messages for one substrate and is the single writer of
// the traffic ledger (the counting semantics documented on metrics.Traffic):
// every routed message counts under Sends first and then lands in exactly
// one of Losses, DeadLetters, or Deliveries, possibly after a stay in the
// delay queue (Delayed). Substrates read snapshots through Traffic. It is
// not safe for concurrent use: each substrate confines its router to one
// goroutine (or one barrier phase) at a time — the engine is
// single-threaded, the network holds its mutex, the sharded engine holds its
// gate — a contract the sharedguard and shardconfine analyzers enforce on
// every access rather than one left to reviewer memory.
type Router struct {
	cond *faults.Conditions
	rng  *rng.RNG
	live func(peer.ID) bool

	ledger  metrics.Traffic
	clock   int
	seq     int
	pending parkedQueue
}

// NewRouter builds a router ruling through a fault-injection stack. The rng
// must be the substrate's own decision stream — the router draws from it in
// call order, so substrates that interleave other draws on the same stream
// (the sequential engine) keep their exact historical draw sequence. live
// reports whether a destination can currently receive; it is called
// synchronously under whatever serialization the caller holds.
func NewRouter(cond *faults.Conditions, r *rng.RNG, live func(peer.ID) bool) *Router {
	return &Router{cond: cond, rng: r, live: live}
}

// Route rules on one message addressed to to, consulting the fault stack
// with a per-message decision. Msg.IDs is copied only if the message parks
// (delay-queue entries outlive the caller's buffers); the steady-state
// paths never allocate.
//
//vet:hotpath
func (rt *Router) Route(to peer.ID, msg protocol.Message) Outcome {
	return rt.ruleVerdict(rt.cond.Decide(msg.From, to, rt.rng), to, msg)
}

// RouteIn is Route under an open fault-stack session — the sharded engine's
// bulk route pass locks the stack once per pass instead of once per
// message. The caller owns the session; the router only draws a verdict
// from it.
//
//vet:hotpath
func (rt *Router) RouteIn(ses *faults.Session, to peer.ID, msg protocol.Message) Outcome {
	return rt.ruleVerdict(ses.Decide(msg.From, to, rt.rng), to, msg)
}

// ruleVerdict counts the attempt and applies a fault verdict: drop (with
// subset accounting), park, or fall through to the liveness check.
func (rt *Router) ruleVerdict(v faults.Verdict, to peer.ID, msg protocol.Message) Outcome {
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
		rt.seq++
		//lint:allow hotalloc delay-queue entries outlive the caller's arena; parking is off the zero-alloc steady state
		ids := make([]peer.ID, len(msg.IDs))
		copy(ids, msg.IDs)
		msg.IDs = ids
		//lint:allow hotalloc heap.Push boxes the parked entry; only delayed messages pay it
		heap.Push(&rt.pending, parked{due: rt.clock + v.Delay, seq: rt.seq, to: to, msg: msg})
		return Parked
	}
	return rt.deliverable(to)
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

// Tick advances the delay-queue clock one round.
func (rt *Router) Tick() { rt.clock++ }

// Due pops the next delayed message due by the current clock, in (due,
// enqueue) order; ok is false when nothing further is due. The returned
// message has not been accounted beyond Delayed: the caller resolves it
// with Deliverable at drain time.
func (rt *Router) Due() (Held, bool) {
	if len(rt.pending) == 0 || rt.pending[0].due > rt.clock {
		return Held{}, false
	}
	d := heap.Pop(&rt.pending).(parked)
	return Held{To: d.to, Msg: d.msg}, true
}

// Deliverable resolves drain-time liveness for a message surfaced by Due,
// counting the dead letter or the delivery. The fault stack is not
// re-consulted: the message already passed it when it parked.
func (rt *Router) Deliverable(to peer.ID) bool {
	return rt.deliverable(to) == Delivered
}

// Pending returns the number of messages parked in the delay queue.
func (rt *Router) Pending() int { return len(rt.pending) }

// Traffic returns a snapshot of the traffic ledger.
func (rt *Router) Traffic() metrics.Traffic { return rt.ledger }

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
