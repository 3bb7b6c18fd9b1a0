// Package engine is the sequential discrete-event simulator realizing the
// paper's analysis model (Section 5): "a central entity repeatedly selects a
// random node, invokes its InitiateAction method, and waits for the
// completion of the receive by the receiving node (in case a message was
// sent)".
//
// Each Step picks an active node uniformly at random (Proposition 5.2),
// runs its initiate step, subjects every emitted message — including replies
// of bidirectional baselines — to the loss model, and runs the receive steps
// of delivered messages. A Round is n such steps, n the number of active
// nodes: "the period of time during which each node is expected to initiate
// exactly one action" (Section 6.5).
//
// The engine owns one step core and one view per node, built from a
// protocol.CoreFactory over the circulant bootstrap overlay — the same
// construction the concurrent substrates of internal/runtime use, so all of
// them run the same step code. Fault decisions, delay-queue mechanics, and
// traffic accounting live in the shared internal/driver router; the engine
// contributes only its scheduling discipline and the reply-chain walk.
package engine

import (
	"fmt"

	"sendforget/internal/driver"
	"sendforget/internal/faults"
	"sendforget/internal/graph"
	"sendforget/internal/loss"
	"sendforget/internal/metrics"
	"sendforget/internal/peer"
	"sendforget/internal/protocol"
	"sendforget/internal/rng"
	"sendforget/internal/view"
)

// Engine drives the nodes of one overlay. Not safe for concurrent use.
type Engine struct {
	newCore protocol.CoreFactory
	name    string
	cores   []protocol.StepCore // nil for departed nodes
	views   []*view.View        // nil for departed nodes
	tally   protocol.Counters   // protocol events over all nodes
	out     protocol.Outbox     // the one message the current step emitted

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

// New builds an engine of n nodes, one step core per node from newCore,
// bootstrapped on the circulant overlay with outdegree initDegree (0
// selects driver.BootstrapDegree's default), with the given loss model and
// randomness. The circulant graph — node u points at u+1, ..., u+d (mod n)
// — is weakly connected, d-regular in and out, and has sum degree exactly
// 3d at every node: the initialization Section 6.1 assumes. The gossip
// process then randomizes it (Lemma 7.5: with no loss the stationary
// distribution is uniform over all reachable graphs).
func New(newCore protocol.CoreFactory, n, initDegree int, lm loss.Model, r *rng.RNG) (*Engine, error) {
	cond, err := faults.New(lm)
	if err != nil {
		return nil, err
	}
	return NewWithConditions(newCore, n, initDegree, cond, r)
}

// NewWithConditions builds an engine whose transmissions pass through a
// caller-owned fault-injection stack (burst loss, per-link overrides,
// partitions, delay) — the same decision logic the in-memory runtime network
// applies, so cross-substrate comparisons see identical network behavior.
// The conditions instance must be dedicated to this engine: stateful models
// advance on every decision.
func NewWithConditions(newCore protocol.CoreFactory, n, initDegree int, cond *faults.Conditions, r *rng.RNG) (*Engine, error) {
	if newCore == nil || cond == nil || r == nil {
		return nil, fmt.Errorf("engine: nil dependency")
	}
	if n < 2 {
		return nil, fmt.Errorf("engine: need at least 2 nodes, got %d", n)
	}
	initDegree, err := driver.BootstrapDegree(newCore, n, initDegree)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		newCore: newCore,
		cores:   make([]protocol.StepCore, n),
		views:   make([]*view.View, n),
		cond:    cond,
		r:       r,
		idx:     make(map[peer.ID]int, n),
	}
	// The router shares the engine's RNG: protocol draws and fault decisions
	// interleave on one stream.
	e.router = driver.NewRouter(cond, r, func(id peer.ID) bool { _, ok := e.idx[id]; return ok })
	seeds := make([]peer.ID, initDegree)
	for u := 0; u < n; u++ {
		driver.Circulant(peer.ID(u), n, seeds)
		if err := e.Join(peer.ID(u), seeds); err != nil {
			return nil, err
		}
	}
	e.name = e.cores[0].Name()
	return e, nil
}

// Conditions returns the fault-injection stack every transmission passes.
func (e *Engine) Conditions() *faults.Conditions { return e.cond }

// Name identifies the protocol the cores run.
func (e *Engine) Name() string { return e.name }

// N returns the number of node slots (including departed nodes).
func (e *Engine) N() int { return len(e.views) }

// View returns node u's local view, nil for a departed node. The caller
// must treat the view as read-only.
func (e *Engine) View(u peer.ID) *view.View {
	if int(u) < 0 || int(u) >= len(e.views) {
		return nil
	}
	return e.views[u]
}

// Core returns node u's step core, nil for a departed node. Callers reach
// protocol-specific per-node state through it (the sfopt variant tally, the
// S&F dependence tags).
func (e *Engine) Core(u peer.ID) protocol.StepCore {
	if int(u) < 0 || int(u) >= len(e.cores) {
		return nil
	}
	return e.cores[u]
}

// Tally returns the protocol events summed over all nodes since
// construction, in the shape every substrate reports them.
func (e *Engine) Tally() protocol.Counters { return e.tally }

// CheckInvariants verifies the protocol's per-view invariant (Observation
// 5.1 for S&F) on every active node. Tests call it after long runs.
func (e *Engine) CheckInvariants() error {
	for u, lv := range e.views {
		if lv == nil {
			continue
		}
		if err := e.cores[u].CheckView(lv); err != nil {
			return fmt.Errorf("engine: node %d: %w", u, err)
		}
	}
	return nil
}

// Traffic reports the router's ledger.
func (e *Engine) Traffic() metrics.Traffic { return e.router.Traffic() }

// ActiveCount returns the number of schedulable nodes.
func (e *Engine) ActiveCount() int { return len(e.active) }

// Step executes one protocol action by a uniformly random active node.
func (e *Engine) Step() {
	u := e.active[e.r.Intn(len(e.active))]
	e.StepAt(u)
}

// StepAt executes one protocol action initiated by u; the protocol tests
// drive a chosen node with it. A departed u does not act: the step is a
// self-loop.
func (e *Engine) StepAt(u peer.ID) {
	ev := ActionEvent{Step: e.tally.Ticks + 1, Initiator: u}
	e.out.Reset()
	if lv := e.View(u); lv != nil {
		e.tally.Initiated(e.cores[u].InitiateBatch(lv, u, e.r, &e.out))
	} else {
		e.tally.Initiated(0, 0, false)
	}
	if to, msg, ok := e.out.Message(); ok {
		ev.Sent = true
		ev.To = to
		e.transmit(to, msg, &ev)
	}
	if e.OnAction != nil {
		e.OnAction(ev)
	}
}

// transmit routes msg through the shared driver and delivers it, following
// reply chains (each reply is again subject to the fault layer, which may
// drop it, cut it at a partition, or park it in the delay queue until a
// later round).
func (e *Engine) transmit(to peer.ID, msg protocol.Message, ev *ActionEvent) {
	for {
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
		if to, msg, replied = e.deliver(to, msg); !replied {
			return
		}
	}
}

// deliver runs the receive step at u, which the router ruled live, and
// returns the reply of a bidirectional protocol. msg owns its ids, so the
// outbox the previous step wrote can be reused for the reply.
func (e *Engine) deliver(u peer.ID, msg protocol.Message) (peer.ID, protocol.Message, bool) {
	e.out.Reset()
	e.tally.Received(e.cores[u].ReceiveBatch(e.views[u], u, protocol.Packet(msg), e.r, &e.out))
	return e.out.Message()
}

// Round executes one round: the delay queue delivers what came due, then as
// many steps as there are active nodes run. Rounds are the delay-queue
// clock; Step/StepAt called outside Round never advance it.
func (e *Engine) Round() {
	e.router.Tick()
	e.drainDue()
	for i, n := 0, len(e.active); i < n; i++ {
		e.Step()
	}
}

// PendingDelayed returns the number of messages parked in the delay queue.
func (e *Engine) PendingDelayed() int { return e.router.Pending() }

// DrainDelayed advances the delay-queue clock without running any protocol
// steps until the queue is empty, delivering everything in flight. Runs end
// with it so the traffic identity Sends = Losses + Deliveries + DeadLetters
// holds on the final counters. Replies generated by drained deliveries are
// subject to the fault layer and may be re-delayed; the loop runs until
// those settle too.
func (e *Engine) DrainDelayed() {
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
func (e *Engine) drainDue() {
	for {
		d, ok := e.router.Due()
		if !ok {
			return
		}
		if !e.router.Deliverable(d.To) {
			continue
		}
		var ev ActionEvent // counters only; not reported
		if replyTo, reply, replied := e.deliver(d.To, d.Msg); replied {
			e.transmit(replyTo, reply, &ev)
		}
	}
}

// Run executes the given number of rounds.
func (e *Engine) Run(rounds int) {
	for i := 0; i < rounds; i++ {
		e.Round()
	}
}

// Snapshot returns the current membership graph.
func (e *Engine) Snapshot() *graph.Graph {
	return graph.FromViews(e.Views())
}

// Views collects per-node views (nil for departed nodes). Callers must
// treat the views as read-only.
func (e *Engine) Views() []*view.View {
	out := make([]*view.View, len(e.views))
	copy(out, e.views)
	return out
}

// Join activates departed node u with a fresh core and an initial view
// holding the seed ids ("a joining node has to know at least dL ids of live
// nodes"; in practice the ids are copied from another node's view), and
// adds it to the scheduling pool.
func (e *Engine) Join(u peer.ID, seeds []peer.ID) error {
	if int(u) < 0 || int(u) >= len(e.views) {
		return fmt.Errorf("engine: node id %v outside the %d-node universe", u, len(e.views))
	}
	if e.views[u] != nil {
		return fmt.Errorf("engine: node %v is already active", u)
	}
	core, err := e.newCore()
	if err != nil {
		return fmt.Errorf("engine: core for node %v: %w", u, err)
	}
	lv, err := core.SeedView(seeds)
	if err != nil {
		return fmt.Errorf("engine: join of %v: %w", u, err)
	}
	e.cores[u], e.views[u] = core, lv
	e.idx[u] = len(e.active)
	e.active = append(e.active, u)
	return nil
}

// Leave removes node u from the scheduling pool: per the paper, leaving
// nodes "simply stop participating in the protocol"; the id remains in
// other views and decays per Lemma 6.10, and messages to it become dead
// letters. Leaving twice is harmless.
func (e *Engine) Leave(u peer.ID) {
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
