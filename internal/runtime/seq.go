package runtime

import (
	"context"
	"fmt"
	gotrace "runtime/trace"

	"sendforget/internal/driver"
	"sendforget/internal/faults"
	"sendforget/internal/graph"
	"sendforget/internal/metrics"
	"sendforget/internal/peer"
	"sendforget/internal/protocol"
	"sendforget/internal/rng"
	"sendforget/internal/view"
)

// Seq is the sequential discrete-event engine realizing the paper's analysis
// model (Section 5): "a central entity repeatedly selects a random node,
// invokes its InitiateAction method, and waits for the completion of the
// receive by the receiving node (in case a message was sent)". Construct
// with New (EngineSeq).
//
// Each Step picks an active node uniformly at random (Proposition 5.2), runs
// its initiate step, subjects every emitted message — including replies of
// bidirectional baselines — to the fault layer, and runs the receive steps
// of delivered messages. A TickRound is n such steps, n the number of active
// nodes: "the period of time during which each node is expected to initiate
// exactly one action" (Section 6.5).
//
// Fault decisions, delay-queue mechanics, and traffic accounting live in the
// shared internal/driver router; Seq contributes only its scheduling
// discipline and the reply-chain walk. Beyond Substrate it exposes only what
// a per-action scheduler has: Step, StepAt and the OnAction hook. Not safe
// for concurrent use.
type Seq struct {
	src   coreSource
	cores []protocol.StepCore // nil for departed nodes
	views []*view.View        // nil for departed nodes
	tally protocol.Counters   // protocol events over all nodes
	// out is where the steps write their one message, in turns: a message
	// in delivery aliases one outbox while the receive step writes its reply
	// into the other.
	out [2]protocol.Outbox

	cond   *faults.Conditions
	r      *rng.RNG
	router *driver.Router
	active []peer.ID // scheduling pool
	idx    map[peer.ID]int

	// OnAction, when non-nil, receives a structured event per step —
	// tracing and fine-grained measurement hook.
	OnAction func(ev ActionEvent)
}

// ActionEvent describes one protocol step for observers.
type ActionEvent struct {
	// Step is the 1-based step index.
	Step int
	// Initiator is the node whose action ran.
	Initiator peer.ID
	// Sent reports whether the action emitted a message (false = self-loop).
	Sent bool
	// To is the first message's destination (valid when Sent).
	To peer.ID
	// Lost reports whether any message of the action was dropped by the
	// loss model; DeadLetters counts messages to departed nodes; Delivered
	// counts successful deliveries (greater than one for reply chains).
	Lost        bool
	DeadLetters int
	Delivered   int
}

// newSeq builds the sequential backend from a Config New has resolved and
// its step cores, over the circulant bootstrap overlay.
// The circulant graph — node u points at u+1, ..., u+d (mod n) — is weakly
// connected, d-regular in and out, and has sum degree exactly 3d at every
// node: the initialization Section 6.1 assumes. The gossip process then randomizes it (Lemma 7.5:
// with no loss the stationary distribution is uniform over all reachable
// graphs).
func newSeq(cfg Config, src coreSource) (*Seq, error) {
	e := &Seq{
		src:   src,
		cores: make([]protocol.StepCore, cfg.N),
		views: make([]*view.View, cfg.N),
		cond:  cfg.Conditions,
		r:     rng.New(cfg.Seed),
		idx:   make(map[peer.ID]int, cfg.N),
	}
	// The router shares the engine's RNG: protocol draws and fault decisions
	// interleave on one stream.
	e.router = driver.NewRouter(e.cond, e.r, func(id peer.ID) bool { _, ok := e.idx[id]; return ok })
	seeds := make([]peer.ID, cfg.InitDegree)
	for u := 0; u < cfg.N; u++ {
		driver.Circulant(peer.ID(u), cfg.N, seeds)
		if err := e.join(peer.ID(u), seeds); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// Conditions returns the fault-injection stack every transmission passes.
func (e *Seq) Conditions() *faults.Conditions { return e.cond }

// Counters returns the protocol events summed over all nodes since
// construction.
func (e *Seq) Counters() NodeCounters { return e.tally }

// CheckInvariants verifies the protocol's per-view invariant on every active
// node.
func (e *Seq) CheckInvariants() error { return checkInvariants(e) }

// EachNode calls fn for every active node in id order, with its live view
// and core.
func (e *Seq) EachNode(fn func(u peer.ID, lv *view.View, core protocol.StepCore)) {
	for u, lv := range e.views {
		if lv != nil {
			fn(peer.ID(u), lv, e.cores[u])
		}
	}
}

// Traffic reports the router's ledger.
func (e *Seq) Traffic() metrics.Traffic { return e.router.Traffic() }

// Step executes one protocol action by a uniformly random active node.
func (e *Seq) Step() {
	u := e.active[e.r.Intn(len(e.active))]
	e.StepAt(u)
}

// StepAt executes one protocol action initiated by u; the protocol tests
// drive a chosen node with it. A departed u does not act: the step is a
// self-loop.
//
//vet:hotpath
func (e *Seq) StepAt(u peer.ID) {
	ev := ActionEvent{Step: e.tally.Ticks + 1, Initiator: u}
	ob := &e.out[0]
	ob.Reset()
	if uint(u) < uint(len(e.views)) && e.views[u] != nil {
		e.tally.Initiated(e.cores[u].InitiateBatch(e.views[u], u, e.r, ob))
	} else {
		e.tally.Initiated(0, 0, false)
	}
	if to, msg, ok := ob.Lend(); ok {
		ev.Sent = true
		ev.To = to
		e.transmit(to, msg, 1, &ev)
	}
	if e.OnAction != nil {
		e.OnAction(ev)
	}
}

// transmit routes msg through the shared driver and delivers it, following
// reply chains (each reply is again subject to the fault layer, which may
// drop it, cut it at a partition, or park it in the delay queue until a
// later round). msg is lent: its ids alias the outbox that is not e.out[next]
// (or the delay calendar), and a parked message is copied. Each reply
// goes into e.out[next], and the turns alternate down the chain.
func (e *Seq) transmit(to peer.ID, msg protocol.Message, next int, ev *ActionEvent) {
	for ; ; next ^= 1 {
		switch e.router.Route(to, msg) {
		case driver.Dropped:
			ev.Lost = true
			return
		case driver.Parked:
			return
		case driver.DeadLetter:
			ev.DeadLetters++
			return
		}
		ev.Delivered++
		var replied bool
		if to, msg, replied = e.deliver(to, msg, &e.out[next]); !replied {
			return
		}
	}
}

// deliver runs the receive step at u, which the router ruled live, and
// returns the reply of a bidirectional protocol, lent from ob. msg's ids
// must not alias ob.
func (e *Seq) deliver(u peer.ID, msg protocol.Message, ob *protocol.Outbox) (peer.ID, protocol.Message, bool) {
	ob.Reset()
	e.tally.Received(e.cores[u].ReceiveBatch(e.views[u], u, protocol.Packet(msg), e.r, ob))
	return ob.Lend()
}

// TickRound executes one round: the delay queue delivers what came due,
// then as many steps as there are active nodes run. Rounds are the
// delay-queue clock; Step/StepAt called outside TickRound never advance it.
// The round runs in a "tick round" trace region.
func (e *Seq) TickRound() {
	defer gotrace.StartRegion(context.Background(), "tick round").End()
	e.router.Tick()
	e.drainDue()
	for i, n := 0, len(e.active); i < n; i++ {
		e.Step()
	}
}

// Pending returns the number of messages parked in the delay queue.
func (e *Seq) Pending() int { return e.router.Pending() }

// DrainDelayed advances the delay-queue clock without running any protocol
// steps until the queue is empty. Replies generated by drained deliveries
// are subject to the fault layer and may be re-delayed; the loop runs until
// those settle too.
func (e *Seq) DrainDelayed() {
	for e.router.Pending() > 0 {
		e.router.Tick()
		e.drainDue()
	}
}

// drainDue delivers every delayed message due by the current round, in
// (due, enqueue) order. Routing is resolved at drain time (a destination
// that left while the message was in flight is a dead letter), and replies
// re-enter transmit, so they face the fault layer like any send. OnAction
// does not fire for these deliveries: they belong to no initiate step.
func (e *Seq) drainDue() {
	for {
		d, ok := e.router.Due()
		if !ok {
			return
		}
		if !e.router.Deliverable(d.To) {
			continue
		}
		var ev ActionEvent // counters only; not reported
		if replyTo, reply, replied := e.deliver(d.To, d.Msg, &e.out[0]); replied {
			e.transmit(replyTo, reply, 1, &ev)
		}
	}
}

// N returns the size of the id universe.
func (e *Seq) N() int { return len(e.views) }

// Snapshot returns the current membership graph.
func (e *Seq) Snapshot() *graph.Graph { return graph.FromViews(e.views) }

// Views copies every node's view (nil for departed nodes).
func (e *Seq) Views() []*view.View { return views(e, len(e.views), e.src.s) }

// AddNode activates departed node u with its step core and an initial view
// holding the seed ids ("a joining node has to know at least dL ids of live
// nodes"; in practice the ids are copied from another node's view), and
// adds it to the scheduling pool. The start flag is ignored: Seq is
// scheduler-driven, not timer-driven.
func (e *Seq) AddNode(u peer.ID, seeds []peer.ID, start bool) error {
	_ = start
	if err := checkSeeds(seeds, len(e.views)); err != nil {
		return err
	}
	return e.join(u, seeds)
}

func (e *Seq) join(u peer.ID, seeds []peer.ID) error {
	if int(u) < 0 || int(u) >= len(e.views) {
		return fmt.Errorf("runtime: node id %v outside the %d-node universe", u, len(e.views))
	}
	if e.views[u] != nil {
		return fmt.Errorf("runtime: node %v is already active", u)
	}
	core, err := e.src.core(u)
	if err != nil {
		return err
	}
	lv := view.New(e.src.s)
	if err := core.SeedView(lv, seeds); err != nil {
		return fmt.Errorf("runtime: join of %v: %w", u, err)
	}
	e.cores[u], e.views[u] = core, lv
	e.idx[u] = len(e.active)
	e.active = append(e.active, u)
	return nil
}

// RemoveNode removes node u from the scheduling pool: per the paper, leaving
// nodes "simply stop participating in the protocol"; the id remains in
// other views and decays per Lemma 6.10, and messages to it become dead
// letters. Removing twice is harmless.
func (e *Seq) RemoveNode(u peer.ID) {
	i, ok := e.idx[u]
	if !ok {
		return
	}
	e.cores[u], e.views[u] = nil, nil
	last := len(e.active) - 1
	e.active[i] = e.active[last]
	e.idx[e.active[i]] = i
	e.active = e.active[:last]
	delete(e.idx, u)
}

// Close is a no-op: Seq holds no goroutines or timers.
func (e *Seq) Close() {}
