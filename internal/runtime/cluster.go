package runtime

import (
	"fmt"
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

// Cluster is a set of concurrently running protocol nodes wired through an
// in-memory lossy network.
//
// The node slice is guarded by an RWMutex so churn (RemoveNode/AddNode) is
// safe while other goroutines snapshot views, tick rounds, or sum counters:
// readers copy the slice under the read lock and operate on the copy, so a
// node removed mid-iteration is at worst ticked one extra time — which is
// harmless (it only gossips into a network that no longer routes to it) —
// and never a data race.
//
// sfvet's sharedguard analyzer checks this discipline statically: every
// cross-goroutine access pair to these fields must be lock-excluded,
// happens-before ordered, or on a not-yet-shared instance, independent of
// which schedules a -race run happens to take.
type Cluster struct {
	cfg Config
	s   int // every node's view size
	net *transport.Network

	mu     sync.RWMutex
	nodes  []*Node
	roster *driver.Roster // per-node incarnations and seed derivation
	// A leaving node's counters stay in Counters: it sits in leaving from the
	// hold that clears its slot until, stopped, its final counters are folded
	// into departed.
	leaving  []*Node
	departed NodeCounters

	drainStop chan struct{}
	drainWG   sync.WaitGroup
}

// newCluster wires up the nodes with the circulant bootstrap topology, from
// a Config New has resolved and its view size s.
func newCluster(cfg Config, s int) (*Cluster, error) {
	if cfg.Period == 0 {
		cfg.Period = 10 * time.Millisecond
	}
	nw, err := transport.NewNetworkWithConditions(cfg.Conditions, rng.New(cfg.Seed))
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		cfg:    cfg,
		s:      s,
		net:    nw,
		nodes:  make([]*Node, cfg.N),
		roster: driver.NewRoster(cfg.Seed, cfg.N),
	}
	seeds := make([]peer.ID, cfg.InitDegree)
	for u := 0; u < cfg.N; u++ {
		core, err := coreFor(cfg.NewCore, peer.ID(u), s)
		if err != nil {
			return nil, err
		}
		driver.Circulant(peer.ID(u), cfg.N, seeds)
		node, err := NewNode(NodeConfig{
			ID:     peer.ID(u),
			Core:   core,
			Period: cfg.Period,
			Seed:   c.roster.SeedFor(peer.ID(u)),
		}, seeds, nw)
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
// reconfiguration (partitions, link overrides).
func (c *Cluster) Conditions() *faults.Conditions { return c.net.Conditions() }

// Start launches every node's gossip loop plus a drain timer that advances
// the network's delay queue once per period.
func (c *Cluster) Start() {
	c.mu.Lock()
	if c.drainStop == nil {
		c.drainStop = make(chan struct{})
		c.drainWG.Add(1)
		go func(stop chan struct{}) {
			defer c.drainWG.Done()
			ticker := time.NewTicker(c.cfg.Period)
			defer ticker.Stop()
			for {
				select {
				case <-stop:
					return
				case <-ticker.C:
					c.net.Advance()
				}
			}
		}(c.drainStop)
	}
	c.mu.Unlock()
	for _, n := range c.Nodes() {
		if n != nil {
			n.Start()
		}
	}
}

// Stop terminates every node and the drain timer.
func (c *Cluster) Stop() {
	for _, n := range c.Nodes() {
		if n != nil {
			n.Stop()
		}
	}
	c.mu.Lock()
	stop := c.drainStop
	c.drainStop = nil
	c.mu.Unlock()
	if stop != nil {
		close(stop)
		c.drainWG.Wait()
	}
}

// TickRound drives one synchronous round — the network delivers the delayed
// messages that came due, then every live node initiates once — for
// deterministic tests and examples that do not want wall-clock timers.
func (c *Cluster) TickRound() {
	c.net.Advance()
	for _, n := range c.Nodes() {
		if n != nil {
			n.Tick()
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

// Close stops every node and the drain timer, releasing the cluster's
// goroutines. The Substrate counterpart of Stop; idempotent.
func (c *Cluster) Close() { c.Stop() }

// Views snapshots all node views (nil entries for departed nodes) into one
// slab, locking each node once for the copy of its own.
func (c *Cluster) Views() []*view.View { return views(c, c.cfg.N, c.s) }

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

// RemoveNode makes node u leave the cluster: its gossip loop stops and it
// drops off the network, exactly the paper's leave semantics (no protocol
// action). Its id decays from the other views per Lemma 6.10. Idempotent,
// and safe to call while the cluster is running.
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
	// Unregister, stop and read the final counters outside the cluster lock:
	// Stop waits for an in-flight Tick, which may be blocked in a receive
	// handler, and Counters takes the node's own lock.
	c.net.Register(u, nil)
	node.Stop()
	final := node.Counters()
	c.mu.Lock()
	c.departed.Add(final)
	c.leaving = slices.DeleteFunc(c.leaving, func(n *Node) bool { return n == node })
	c.mu.Unlock()
}

// AddNode (re)activates node u with the given seed ids (at least
// max(2, dL), per the paper's join rule) and starts its gossip loop when
// start is set; callers driving TickRound manually simply include it in
// subsequent rounds. Each activation gets a fresh RNG stream derived from
// (cluster seed, id, incarnation). Safe to call while the cluster is
// running.
func (c *Cluster) AddNode(u peer.ID, seeds []peer.ID, start bool) error {
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
	core, err := coreFor(c.cfg.NewCore, u, c.s)
	if err != nil {
		c.mu.Unlock()
		return err
	}
	c.roster.Bump(u)
	node, err := NewNode(NodeConfig{
		ID:     u,
		Core:   core,
		Period: c.cfg.Period,
		Seed:   c.roster.SeedFor(u),
	}, seeds, c.net)
	if err != nil {
		c.mu.Unlock()
		return err
	}
	c.nodes[u] = node
	c.mu.Unlock()
	c.net.Register(u, node.HandleMessage)
	if start {
		node.Start()
	}
	return nil
}
