// Package runtime holds the execution substrates of the gossip membership
// protocols behind one Substrate interface: Seq, the sequential scheduler of
// the paper's analysis model; Cluster, concurrently stepped nodes with
// fire-and-forget messaging over an in-memory transport — the deployment
// shape Section 5 describes ("each node periodically invoking its
// InitiateAction method at the same frequency at all nodes"); and
// ShardedCluster, the synchronous tick engine for 10^5..10^6 nodes.
//
// Every protocol decision is made by a protocol.StepCore, and all three
// substrates run the same cores; they differ only in scheduling,
// concurrency, and transport. Proposition 5.2 is what licenses sharing the
// cores: the serial scheduler and the concurrent fire-and-forget deployment
// induce the same protocol behavior.
//
// A Node is stepped, never timed: it gossips when something calls Tick. The
// wall-clock cadence of a deployment belongs to whoever drives the rounds:
// Cluster.Start and the public membership.Node pace theirs with Every, and
// a daemon's run loop ticks from its own ticker.
package runtime

import (
	"fmt"
	"sync"
	"sync/atomic"

	"sendforget/internal/peer"
	"sendforget/internal/protocol"
	"sendforget/internal/rng"
	"sendforget/internal/view"
)

// Sender transmits a message toward a node id. Both transport.Network and
// transport.Endpoint satisfy it.
//
// msg.IDs is lent for the duration of the call: it aliases the sending
// node's outbox, which the node reuses once Send returns, so Send must not
// keep the slice (or hand it on to anything that does) after it returns. A
// Sender that holds a message past the call — a delay queue, a test that
// records what was sent — copies the ids.
type Sender interface {
	Send(to peer.ID, msg protocol.Message) error
}

// NodeConfig parameterizes one runtime node.
type NodeConfig struct {
	// ID is this node's identity.
	ID peer.ID
	// Core is the node's protocol step core. The node serializes its own
	// steps, not those of other nodes, so a protocol.PerNode core must be
	// the node's alone; any other core only has its parameters read by a
	// step and may serve every node at once.
	Core protocol.StepCore
	// Seed seeds the node's private RNG; 0 derives one from the id.
	Seed rng.Seed
}

func (c NodeConfig) validate() error {
	if c.Core == nil {
		return fmt.Errorf("runtime: nil step core")
	}
	return nil
}

// NodeCounters is the protocol-event tally every substrate reports. The
// type lives in internal/protocol, beside the step-core results it tallies;
// the name here is what callers of Substrate.Counters and Node.Counters (the
// frozen benchmark among them) use.
type NodeCounters = protocol.Counters

// Node is a single protocol participant, stepped by its caller: Tick
// initiates one action and HandleMessage receives one message. All state is
// private and protected by one mutex; sends happen outside the lock so that
// two nodes gossiping at each other cannot deadlock.
//
// Each step claims an outbox before it takes the lock — the node's own, or
// one from its spares while another step of this node holds that — writes its
// message into it under the lock, and keeps it through the send, which
// lends the message's ids straight from it; the outbox is given back once
// Send has returned. So each step in flight holds an outbox of its own — a
// Tick racing a HandleMessage, or a reply (or a message to the node's own
// id) that comes back through a synchronous transport while this node's
// send is still under way — and warmed-up nodes send without allocating.
type Node struct {
	cfg  NodeConfig
	core protocol.StepCore
	out  Sender

	mu       sync.Mutex
	obHeld   atomic.Bool // a step holds ob; beside mu, on the cache line a step takes anyway
	lv       *view.View
	r        *rng.RNG
	counters NodeCounters
	ob       protocol.Outbox // the node's own outbox
	spares   *outboxPool     // for a step while another holds ob
}

// outboxPool is a free list of the outboxes steps borrow while another step
// of their node holds the node's own. It grows to the most such steps ever
// in flight at once: a Tick's send that comes back to its own node, a
// request answered while its sender's send is under way, a receive racing a
// tick. A Cluster shares one among its nodes, so the pool is warm after the
// first such step anywhere in the overlay, not after each node's first one.
type outboxPool struct {
	mu   sync.Mutex
	free []*protocol.Outbox
}

// get takes an empty outbox off the free list, making one when every outbox
// is held by a step in flight.
func (p *outboxPool) get() *protocol.Outbox {
	p.mu.Lock()
	defer p.mu.Unlock()
	k := len(p.free) - 1
	if k < 0 {
		return new(protocol.Outbox)
	}
	ob := p.free[k]
	p.free = p.free[:k]
	ob.Reset()
	return ob
}

// put gives ob back to the free list.
func (p *outboxPool) put(ob *protocol.Outbox) {
	p.mu.Lock()
	p.free = append(p.free, ob)
	p.mu.Unlock()
}

// NewNode builds a node whose initial view is seeded by the core ("a joining
// node has to know at least dL ids of live nodes"). The core decides how
// many seeds are usable and errors when too few are given.
func NewNode(cfg NodeConfig, seeds []peer.ID, out Sender) (*Node, error) {
	return newNode(cfg, seeds, out, new(outboxPool))
}

// newNode is NewNode with the pool the node borrows spare outboxes from.
func newNode(cfg NodeConfig, seeds []peer.ID, out Sender, spares *outboxPool) (*Node, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if out == nil {
		return nil, fmt.Errorf("runtime: nil sender")
	}
	if cfg.Seed == 0 {
		// Hash rather than ID+1: the additive fallback collided with
		// explicitly chosen small seeds on other nodes.
		cfg.Seed = rng.DeriveSeed(int64(cfg.ID))
	}
	lv := view.New(cfg.Core.ViewSize())
	if err := cfg.Core.SeedView(lv, seeds); err != nil {
		return nil, fmt.Errorf("runtime: node %v: %w", cfg.ID, err)
	}
	return &Node{
		cfg:    cfg,
		core:   cfg.Core,
		out:    out,
		lv:     lv,
		r:      rng.New(cfg.Seed),
		spares: spares,
	}, nil
}

// ID returns the node's identity.
func (n *Node) ID() peer.ID { return n.cfg.ID }

// Tick initiates one protocol action: the initiate step runs under the node
// lock, the send outside it.
func (n *Node) Tick() {
	ob := n.claim()
	n.mu.Lock()
	n.counters.Initiated(n.core.InitiateBatch(n.lv, n.cfg.ID, n.r, ob))
	n.mu.Unlock()
	n.send(ob)
}

// HandleMessage is the transport receive handler: the protocol's receive
// step under the lock, with any reply (request/reply protocols such as
// shuffle and flipper) sent outside it. Reply chains terminate because
// replies never generate further replies.
func (n *Node) HandleMessage(msg protocol.Message) {
	ob := n.claim()
	n.mu.Lock()
	n.counters.Received(n.core.ReceiveBatch(n.lv, n.cfg.ID, protocol.Packet(msg), n.r, ob))
	n.mu.Unlock()
	n.send(ob)
}

// claim returns an empty outbox for one step: the node's own, or one off
// the free list while another step of this node holds it.
func (n *Node) claim() *protocol.Outbox {
	if !n.obHeld.CompareAndSwap(false, true) {
		return n.spares.get()
	}
	n.ob.Reset()
	return &n.ob
}

// send transmits the message the step left in ob, if any, with the node
// lock released, so that two nodes gossiping at each other cannot deadlock;
// then it gives ob back.
func (n *Node) send(ob *protocol.Outbox) {
	to, msg, ok := ob.Lend()
	if ok && n.out.Send(to, msg) != nil {
		n.mu.Lock()
		n.counters.SendErrors++
		n.mu.Unlock()
	}
	if ob == &n.ob {
		n.obHeld.Store(false)
	} else {
		n.spares.put(ob)
	}
}

// ViewSnapshot returns a copy of the node's current view.
func (n *Node) ViewSnapshot() *view.View {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.lv.Clone()
}

// Counters returns a copy of the node's counters.
func (n *Node) Counters() NodeCounters {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.counters
}

// CheckInvariants verifies the protocol's per-view invariant (Observation
// 5.1 for S&F) on the live view.
func (n *Node) CheckInvariants() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if err := n.core.CheckView(n.lv); err != nil {
		return fmt.Errorf("runtime: node %v: %w", n.cfg.ID, err)
	}
	return nil
}
