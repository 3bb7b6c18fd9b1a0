// Package protocol defines the interface between gossip membership
// protocols and the drivers that execute them (the sequential engine of
// internal/engine and the concurrent and sharded substrates of
// internal/runtime).
//
// Following Section 4.1 of the paper, a protocol is expressed as *steps*
// that execute atomically at a single node: an initiate step that may emit a
// message, and a receive step per delivered message. Loss happens between
// the two; a protocol never learns whether its message arrived. This is the
// property that makes S&F implementable "in fault-prone networks without
// any bookkeeping".
//
// Each protocol has exactly one implementation of its two steps, the
// StepCore; every driver — serial scheduler, goroutine per node, sharded
// tick — runs that code. Proposition 5.2 is what licenses the sharing: the
// same steps behave equivalently under any of the schedulers.
package protocol

import (
	"sendforget/internal/peer"
	"sendforget/internal/rng"
	"sendforget/internal/view"
)

// Kind distinguishes message types for protocols with more than one (the
// shuffle baseline has a request/reply pair; S&F needs only one).
type Kind uint8

// Message kinds.
const (
	KindGossip  Kind = iota // unidirectional gossip (S&F, push-pull)
	KindRequest             // shuffle request
	KindReply               // shuffle reply
)

// Message is a protocol message in the self-contained shape transports
// carry: IDs is owned by the message. IDs holds the gossiped node ids (for
// S&F the pair [u, w] of Figure 5.1). Dup marks messages sent by an action
// that performed duplication; the dependence tracker uses it and protocols
// that do not track dependence ignore it.
type Message struct {
	Kind Kind
	From peer.ID
	IDs  []peer.ID
	Dup  bool
}

// StepCore is the per-node protocol logic: the nonatomic step functions of
// Section 4.1 expressed over a single local view, with no knowledge of the
// rest of the system. Steps write their outgoing message into a
// driver-owned Outbox and report what happened through their return values,
// so a step allocates nothing and a driver accounts without reading the
// core's memory.
//
// A StepCore instance belongs to one node: implementations may keep
// per-node protocol state (the sfopt graveyard, the S&F dependence tags)
// and are not safe for concurrent use. Drivers build one per node from a
// CoreFactory and serialize calls per instance.
type StepCore interface {
	// Name identifies the protocol in experiment output.
	Name() string
	// ViewSize returns the number of slots s of the local view the core
	// operates on.
	ViewSize() int
	// SeedView builds the initial local view from the bootstrap seed ids
	// (the paper's join rule: "a joining node has to know at least dL ids
	// of live nodes"). It returns an error when the seeds are insufficient
	// for the protocol's invariants.
	SeedView(seeds []peer.ID) (*view.View, error)
	// InitiateBatch runs the initiator step at node u over its local view
	// lv, appending the outgoing message to out. It reports how many
	// messages it appended (at most one for every current protocol) and how
	// many of those were sent at the duplication floor (their Dup flag is
	// set); ok is false for a self-loop transformation — no message, no
	// view change, msgs and dups zero.
	InitiateBatch(lv *view.View, u peer.ID, r *rng.RNG, out *Outbox) (msgs, dups int, ok bool)
	// ReceiveBatch runs the receive step at node u for pkt, appending the
	// reply of a bidirectional protocol to out; the reply is again subject
	// to loss. It reports whether a reply was appended and how many of the
	// received ids were not kept for lack of a free slot (S&F deletes both
	// ids of a message that finds the view full). Malformed packets and
	// kinds the protocol does not speak are ignored.
	ReceiveBatch(lv *view.View, u peer.ID, pkt Packet, r *rng.RNG, out *Outbox) (replied bool, deleted int)
	// CheckView verifies the protocol's per-node view invariant (e.g.
	// Observation 5.1 for S&F: outdegree even and within [dL, s]).
	CheckView(lv *view.View) error
}

// BatchStepCore is the former name of StepCore, kept for the frozen
// benchmark module.
type BatchStepCore = StepCore

// CoreFactory builds a fresh, independent StepCore. Drivers call it once
// per node (and once per rejoin) so per-node state never crosses nodes.
type CoreFactory func() (StepCore, error)

// Counters tallies protocol events as the steps report them. It is the one
// tally shape every driver keeps — per node, per shard, or per engine — so
// the substrates' ledgers compare field by field. The ratios realize the
// quantities of Lemmas 6.6-6.7 for S&F: Duplications/Sends is the empirical
// duplication probability, DeletedIDs/(2*Sends) the deletion probability.
type Counters struct {
	Ticks        int // initiate steps run
	SelfLoops    int // initiate steps that selected an empty entry (no-ops)
	Sends        int // messages emitted by initiate steps
	Duplications int // sends made at the duplication floor
	Receives     int // receive steps run
	Replies      int // messages emitted by receive steps
	DeletedIDs   int // received ids not kept for lack of a free slot
	SendErrors   int // transport send failures (networked nodes only)
}

// Initiated records the outcome of one initiate step; its parameters are
// InitiateBatch's results.
//
//vet:hotpath
func (c *Counters) Initiated(msgs, dups int, ok bool) {
	c.Ticks++
	if !ok {
		c.SelfLoops++
		return
	}
	c.Sends += msgs
	c.Duplications += dups
}

// Received records the outcome of one receive step; its parameters are
// ReceiveBatch's results.
//
//vet:hotpath
func (c *Counters) Received(replied bool, deleted int) {
	c.Receives++
	if replied {
		c.Replies++
	}
	c.DeletedIDs += deleted
}

// Add accumulates other into c.
func (c *Counters) Add(other Counters) {
	c.Ticks += other.Ticks
	c.SelfLoops += other.SelfLoops
	c.Sends += other.Sends
	c.Duplications += other.Duplications
	c.Receives += other.Receives
	c.Replies += other.Replies
	c.DeletedIDs += other.DeletedIDs
	c.SendErrors += other.SendErrors
}
