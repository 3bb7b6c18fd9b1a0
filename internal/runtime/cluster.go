package runtime

import (
	"context"
	"fmt"
	gotrace "runtime/trace"
	"slices"
	"sync"
	"time"

	"sendforget/internal/driver"
	"sendforget/internal/faults"
	"sendforget/internal/graph"
	"sendforget/internal/metrics"
	"sendforget/internal/peer"
	"sendforget/internal/protocol"
	"sendforget/internal/rng"
	"sendforget/internal/transport"
	"sendforget/internal/view"
)

// Cluster is a set of concurrently stepped protocol nodes wired through an
// in-memory lossy network. TickRound drives it one round at a time; Start
// drives it by the wall clock instead, one loop per node slot and one for
// the network's delay queue.
//
// The node slice is guarded by an RWMutex so churn (RemoveNode/AddNode) is
// safe while other goroutines snapshot views, tick rounds, or sum counters.
// Its length is fixed at construction; only its slots change. Readers copy
// slots under the read lock — Start's slot loops one slot, a round a block
// of slots at a time, the rest the whole slice — and operate on the copy, so
// a node removed mid-iteration is at worst read (or ticked) one extra time
// — which is harmless (it only gossips into a network that no longer routes
// to it, and its final counters may miss that tick) — and never a data
// race.
//
// sfvet's sharedguard analyzer checks this discipline statically: every
// cross-goroutine access pair to these fields must be lock-excluded,
// happens-before ordered, or on a not-yet-shared instance, independent of
// which schedules a -race run happens to take.
type Cluster struct {
	cfg Config
	src coreSource
	net *transport.Network

	mu     sync.RWMutex
	nodes  []*Node
	roster *driver.Roster // per-node incarnations and seed derivation
	// A leaving node's counters stay in Counters: it sits in leaving from the
	// hold that clears its slot until its final counters, read off the lock,
	// are folded into departed.
	leaving  []*Node
	departed NodeCounters

	spares *outboxPool // shared by the nodes

	run *loops // what Start launched; nil while the cluster is not running
}

// loops is one Start's wall-clock loops: Stop closes stop and waits on wg.
type loops struct {
	stop chan struct{}
	wg   sync.WaitGroup
}

// newCluster wires up the nodes with the circulant bootstrap topology, from
// a Config New has resolved and its step cores.
func newCluster(cfg Config, src coreSource) (*Cluster, error) {
	nw, err := transport.NewNetworkWithConditions(cfg.Conditions, rng.New(cfg.Seed))
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		cfg:    cfg,
		src:    src,
		net:    nw,
		nodes:  make([]*Node, cfg.N),
		roster: driver.NewRoster(cfg.Seed, cfg.N),
		spares: new(outboxPool),
	}
	seeds := make([]peer.ID, cfg.InitDegree)
	for u := 0; u < cfg.N; u++ {
		core, err := src.core(peer.ID(u))
		if err != nil {
			return nil, err
		}
		driver.Circulant(peer.ID(u), cfg.N, seeds)
		node, err := newNode(NodeConfig{
			ID:   peer.ID(u),
			Core: core,
			Seed: c.roster.SeedFor(peer.ID(u)),
		}, seeds, nw, c.spares)
		if err != nil {
			return nil, fmt.Errorf("runtime: node %d: %w", u, err)
		}
		c.nodes[u] = node
		nw.Register(peer.ID(u), node.HandleMessage)
	}
	return c, nil
}

// Nodes copies the node slice (nil entries for departed nodes) under the
// read lock. The copy is the caller's to keep and does not observe later
// churn; iterating it keeps long operations (ticking a round, reading every
// node) off the lock, so churn never waits behind them.
func (c *Cluster) Nodes() []*Node {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return slices.Clone(c.nodes)
}

// Network returns the underlying in-memory network.
func (c *Cluster) Network() *transport.Network { return c.net }

// Conditions returns the network's fault-injection stack for mid-run
// reconfiguration (partitions, delay).
func (c *Cluster) Conditions() *faults.Conditions { return c.net.Conditions() }

// Pacer paces a wall-clock loop, the module's one clock: nodes are stepped,
// never timed, so what drives rounds by the clock runs
// `for p := Every(period, stop); p.Next(); { step() }` on a goroutine of its
// own — the step a direct call there, where the race analyzers follow it.
type Pacer struct {
	ticker *time.Ticker
	stop   <-chan struct{}
}

// Every starts a pacer with the given (positive) period that runs until
// stop is closed.
func Every(period time.Duration, stop <-chan struct{}) *Pacer {
	return &Pacer{ticker: time.NewTicker(period), stop: stop}
}

// Next waits for the next period and reports true, or reports false once
// stop is closed (and stops the pacer).
func (p *Pacer) Next() bool {
	select {
	case <-p.stop:
		p.ticker.Stop()
		return false
	case <-p.ticker.C:
		return true
	}
}

// Start drives the cluster by the wall clock: one loop per node slot ticks
// whichever node holds the slot once per period, and one loop advances the
// network's delay queue at the same rate. AddNode and RemoveNode start and
// stop nothing; a joined node is ticked by its slot's loop. Start on a
// running cluster does nothing, and a stopped cluster can be started again.
// The period must be positive.
func (c *Cluster) Start(period time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.run != nil {
		return
	}
	r := &loops{stop: make(chan struct{})}
	c.run = r
	r.wg.Add(len(c.nodes) + 1)
	go func() {
		defer r.wg.Done()
		for p := Every(period, r.stop); p.Next(); {
			c.net.Advance()
		}
	}()
	for u := range c.nodes {
		go func() {
			defer r.wg.Done()
			for p := Every(period, r.stop); p.Next(); {
				c.tickSlot(u)
			}
		}()
	}
}

// tickSlot ticks the node holding slot u, if any.
func (c *Cluster) tickSlot(u int) {
	c.mu.RLock()
	n := c.nodes[u]
	c.mu.RUnlock()
	if n != nil {
		n.Tick()
	}
}

// Stop ends the loops Start launched and waits for them. Idempotent.
func (c *Cluster) Stop() {
	c.mu.Lock()
	r := c.run
	c.run = nil
	c.mu.Unlock()
	if r != nil {
		close(r.stop)
		r.wg.Wait()
	}
}

// TickRound drives one synchronous round — the network delivers the delayed
// messages that came due, then every live node initiates once — for
// deterministic tests and examples that do not want wall-clock timers.
// The round runs in a "tick round" trace region.
func (c *Cluster) TickRound() {
	defer gotrace.StartRegion(context.Background(), "tick round").End()
	c.net.Advance()
	// The slots are read a block at a time under the read lock, into a
	// buffer on the stack, and the block's nodes are ticked off the lock.
	var block [64]*Node
	for lo := 0; lo < c.cfg.N; lo += len(block) {
		c.mu.RLock()
		k := copy(block[:], c.nodes[lo:])
		c.mu.RUnlock()
		for _, n := range block[:k] {
			if n != nil {
				n.Tick()
			}
		}
	}
}

// DrainDelayed advances the network clock without ticking any node until
// the delay queue is empty, delivering everything in flight — the cluster
// counterpart of Engine.DrainDelayed, run at the end of a comparison so the
// traffic identity (metrics.Traffic.Conserved) holds exactly. Replies
// generated by drained deliveries may be re-delayed; the loop runs until
// those settle too.
func (c *Cluster) DrainDelayed() {
	for c.net.Pending() > 0 {
		c.net.Advance()
	}
}

// Pending returns the number of messages parked in the network delay queue.
func (c *Cluster) Pending() int { return c.net.Pending() }

// Close stops the loops Start launched, releasing the cluster's
// goroutines. The Substrate counterpart of Stop; idempotent.
func (c *Cluster) Close() { c.Stop() }

// Views snapshots all node views (nil entries for departed nodes) into one
// slab, locking each node once for the copy of its own.
func (c *Cluster) Views() []*view.View { return views(c, c.cfg.N, c.src.s) }

// EachNode calls fn for every live node in id order, under the node's lock.
func (c *Cluster) EachNode(fn func(u peer.ID, lv *view.View, core protocol.StepCore)) {
	for u, n := range c.Nodes() {
		if n != nil {
			n.mu.Lock()
			fn(peer.ID(u), n.lv, n.core)
			n.mu.Unlock()
		}
	}
}

// N returns the size of the id universe.
func (c *Cluster) N() int { return c.cfg.N }

// Snapshot returns the current membership graph, built from Views' slab.
func (c *Cluster) Snapshot() *graph.Graph {
	return graph.FromViews(c.Views())
}

// Counters sums the per-node counters over every node that ever ran, the
// departed included, so no counter goes back when a node leaves.
func (c *Cluster) Counters() NodeCounters {
	c.mu.RLock()
	sum := c.departed
	nodes := append(slices.Clone(c.nodes), c.leaving...)
	c.mu.RUnlock()
	for _, n := range nodes {
		if n != nil {
			sum.Add(n.Counters())
		}
	}
	return sum
}

// Traffic reports the network router's ledger.
func (c *Cluster) Traffic() metrics.Traffic { return c.net.Traffic() }

// CheckInvariants validates the protocol's per-view invariant on every node.
func (c *Cluster) CheckInvariants() error { return checkInvariants(c) }

// RemoveNode makes node u leave the cluster: nothing ticks it any more and
// it drops off the network, exactly the paper's leave semantics (no
// protocol action). Its id decays from the other views per Lemma 6.10.
// Idempotent, and safe to call while the cluster is running.
func (c *Cluster) RemoveNode(u peer.ID) {
	c.mu.Lock()
	if int(u) < 0 || int(u) >= len(c.nodes) || c.nodes[u] == nil {
		c.mu.Unlock()
		return
	}
	node := c.nodes[u]
	c.nodes[u] = nil
	c.leaving = append(c.leaving, node)
	c.mu.Unlock()
	// Unregister and read the final counters outside the cluster lock:
	// Counters takes the node's own lock, which a receive handler may hold.
	c.net.Register(u, nil)
	final := node.Counters()
	c.mu.Lock()
	c.departed.Add(final)
	c.leaving = slices.DeleteFunc(c.leaving, func(n *Node) bool { return n == node })
	c.mu.Unlock()
}

// AddNode (re)activates node u with the given seed ids (at least
// max(2, dL), per the paper's join rule). The next TickRound includes it,
// and on a running cluster its slot's loop ticks it; start does nothing.
// Each activation gets a fresh RNG stream derived from (cluster seed, id,
// incarnation). Safe to call while the cluster is running.
func (c *Cluster) AddNode(u peer.ID, seeds []peer.ID, _ bool) error {
	if err := checkSeeds(seeds, c.cfg.N); err != nil {
		return err
	}
	c.mu.Lock()
	if int(u) < 0 || int(u) >= len(c.nodes) {
		c.mu.Unlock()
		return fmt.Errorf("runtime: node id %v outside cluster universe", u)
	}
	if c.nodes[u] != nil {
		c.mu.Unlock()
		return fmt.Errorf("runtime: node %v is already active", u)
	}
	core, err := c.src.core(u)
	if err != nil {
		c.mu.Unlock()
		return err
	}
	c.roster.Bump(u)
	node, err := newNode(NodeConfig{
		ID:   u,
		Core: core,
		Seed: c.roster.SeedFor(u),
	}, seeds, c.net, c.spares)
	if err != nil {
		c.mu.Unlock()
		return err
	}
	c.nodes[u] = node
	c.mu.Unlock()
	c.net.Register(u, node.HandleMessage)
	return nil
}
