// Package runtime is the concurrent implementation of the gossip membership
// protocols: one goroutine per node, periodic action initiation, and
// fire-and-forget messaging over a transport — the deployment shape Section
// 5 describes ("each node periodically invoking its InitiateAction method at
// the same frequency at all nodes").
//
// Every protocol decision is made by a protocol.StepCore — the same step
// cores the sequential simulator schedules; the runtime adds only
// concurrency, timers, and transport. Proposition 5.2 is what licenses
// sharing the cores: the serial scheduler and the concurrent fire-and-forget
// deployment induce the same protocol behavior.
package runtime

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sendforget/internal/peer"
	"sendforget/internal/protocol"
	"sendforget/internal/rng"
	"sendforget/internal/view"
)

// Sender transmits a message toward a node id. Both transport.Network and
// transport.Endpoint satisfy it.
type Sender interface {
	Send(to peer.ID, msg protocol.Message) error
}

// NodeConfig parameterizes one runtime node.
type NodeConfig struct {
	// ID is this node's identity.
	ID peer.ID
	// Core is the per-node protocol step core. It must be a fresh instance:
	// the node serializes access through its own lock, so a core shared with
	// another node would race.
	Core protocol.StepCore
	// Period is the gossip period between initiated actions (used by
	// Start; Tick can be driven manually instead). Defaults to 100ms.
	Period time.Duration
	// Seed seeds the node's private RNG; 0 derives one from the id.
	Seed int64
}

func (c NodeConfig) validate() error {
	if c.Core == nil {
		return fmt.Errorf("runtime: nil step core")
	}
	return nil
}

// NodeCounters is the protocol-event tally every substrate reports. The
// type lives in internal/protocol so the sequential engine, which this
// package imports, can keep the same one; the name here is what callers of
// Substrate.Counters and Node.Counters (the frozen benchmark among them)
// use.
type NodeCounters = protocol.Counters

// Node is a single protocol participant. All state is private and protected
// by one mutex; sends happen outside the lock so that two nodes gossiping
// at each other cannot deadlock.
type Node struct {
	cfg  NodeConfig
	core protocol.StepCore
	out  Sender

	mu       sync.Mutex
	lv       *view.View
	r        *rng.RNG
	counters NodeCounters
	ob       protocol.Outbox // the one message the current step emitted

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	wg        sync.WaitGroup

	// periodNS is the current gossip period in nanoseconds, readable
	// while the loop runs; reset carries live period changes to the
	// gossip loop (capacity 1, latest value wins).
	periodNS atomic.Int64
	reset    chan time.Duration
}

// NewNode builds a node whose initial view is seeded by the core ("a joining
// node has to know at least dL ids of live nodes"). The core decides how
// many seeds are usable and errors when too few are given.
func NewNode(cfg NodeConfig, seeds []peer.ID, out Sender) (*Node, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if out == nil {
		return nil, fmt.Errorf("runtime: nil sender")
	}
	if cfg.Period == 0 {
		cfg.Period = 100 * time.Millisecond
	}
	if cfg.Seed == 0 {
		// Hash rather than ID+1: the additive fallback collided with
		// explicitly chosen small seeds on other nodes.
		cfg.Seed = rng.DeriveSeed(int64(cfg.ID))
	}
	lv, err := cfg.Core.SeedView(seeds)
	if err != nil {
		return nil, fmt.Errorf("runtime: node %v: %w", cfg.ID, err)
	}
	n := &Node{
		cfg:   cfg,
		core:  cfg.Core,
		out:   out,
		lv:    lv,
		r:     rng.New(cfg.Seed),
		stop:  make(chan struct{}),
		reset: make(chan time.Duration, 1),
	}
	n.periodNS.Store(int64(cfg.Period))
	return n, nil
}

// ID returns the node's identity.
func (n *Node) ID() peer.ID { return n.cfg.ID }

// Tick initiates one protocol action: the initiate step runs under the node
// lock, the send outside it.
func (n *Node) Tick() {
	n.mu.Lock()
	n.ob.Reset()
	n.counters.Initiated(n.core.InitiateBatch(n.lv, n.cfg.ID, n.r, &n.ob))
	to, msg, ok := n.ob.Message()
	n.mu.Unlock()
	if ok {
		n.send(to, msg)
	}
}

// HandleMessage is the transport receive handler: the protocol's receive
// step under the lock, with any reply (request/reply protocols such as
// shuffle and flipper) sent outside it. Reply chains terminate because
// replies never generate further replies.
func (n *Node) HandleMessage(msg protocol.Message) {
	n.mu.Lock()
	n.ob.Reset()
	n.counters.Received(n.core.ReceiveBatch(n.lv, n.cfg.ID, protocol.Packet(msg), n.r, &n.ob))
	to, reply, ok := n.ob.Message()
	n.mu.Unlock()
	if ok {
		n.send(to, reply)
	}
}

// send transmits msg with the node lock released, so that two nodes
// gossiping at each other cannot deadlock.
func (n *Node) send(to peer.ID, msg protocol.Message) {
	if err := n.out.Send(to, msg); err != nil {
		n.mu.Lock()
		n.counters.SendErrors++
		n.mu.Unlock()
	}
}

// Start launches the periodic gossip loop. It is idempotent.
func (n *Node) Start() {
	n.startOnce.Do(func() {
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			ticker := time.NewTicker(time.Duration(n.periodNS.Load()))
			defer ticker.Stop()
			for {
				select {
				case <-n.stop:
					return
				case d := <-n.reset:
					ticker.Reset(d)
				case <-ticker.C:
					n.Tick()
				}
			}
		}()
	})
}

// Period returns the current gossip period.
func (n *Node) Period() time.Duration { return time.Duration(n.periodNS.Load()) }

// SetPeriod changes the gossip period live — the management API's config
// reload path. The running loop picks the new period up on its next select;
// if the loop has not started yet, Start uses the latest value. Latest call
// wins when several race.
func (n *Node) SetPeriod(d time.Duration) error {
	if d <= 0 {
		return fmt.Errorf("runtime: node period must be positive, got %v", d)
	}
	n.periodNS.Store(int64(d))
	for {
		select {
		case n.reset <- d:
			return nil
		default:
			// Displace a stale pending reset so the newest value lands.
			select {
			case <-n.reset:
			default:
			}
		}
	}
}

// Stop terminates the gossip loop and waits for it. Leaving the system
// needs nothing more — per the paper, leavers "simply stop participating in
// the protocol". Idempotent.
func (n *Node) Stop() {
	n.stopOnce.Do(func() { close(n.stop) })
	n.wg.Wait()
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
