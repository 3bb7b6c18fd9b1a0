package runtime

import (
	"fmt"
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

// ClusterConfig parameterizes an in-memory cluster of runtime nodes.
type ClusterConfig struct {
	// N is the number of nodes.
	N int
	// NewCore builds one fresh protocol step core per node. Cores hold
	// per-node state and are never shared across nodes.
	NewCore protocol.CoreFactory
	// InitDegree is the circulant bootstrap outdegree (0 selects an even
	// value of about half the core's view size).
	InitDegree int
	// Loss is the uniform message loss rate of the in-memory network,
	// ignored when Conditions is set.
	Loss float64
	// Conditions, when non-nil, is the fault-injection stack the network
	// consults instead of plain uniform loss: burst models, per-link
	// overrides, partitions, and delivery delay. The instance must be
	// dedicated to this cluster (stateful models would otherwise
	// interleave streams across runs).
	Conditions *faults.Conditions
	// Period is each node's gossip period (for Start; TickRound works
	// without timers). Defaults to 10ms for fast examples.
	Period time.Duration
	// Seed drives the network fault decisions and per-node RNGs.
	Seed int64
}

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
// happens-before ordered, or provably confined, independent of which
// schedules a -race run happens to take.
type Cluster struct {
	cfg ClusterConfig
	net *transport.Network

	mu     sync.RWMutex
	nodes  []*Node
	roster *driver.Roster // per-node incarnations and seed derivation

	drainStop chan struct{}
	drainWG   sync.WaitGroup
}

// NewCluster wires up the nodes with the circulant bootstrap topology.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.N < 2 {
		return nil, fmt.Errorf("runtime: cluster needs at least 2 nodes, got %d", cfg.N)
	}
	if cfg.NewCore == nil {
		return nil, fmt.Errorf("runtime: cluster needs a core factory")
	}
	if cfg.Period == 0 {
		cfg.Period = 10 * time.Millisecond
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	var err error
	if cfg.InitDegree, err = driver.BootstrapDegree(cfg.NewCore, cfg.N, cfg.InitDegree); err != nil {
		return nil, err
	}
	cond, err := conditionsOrUniform(cfg.Conditions, cfg.Loss)
	if err != nil {
		return nil, err
	}
	nw, err := transport.NewNetworkWithConditions(cond, rng.New(cfg.Seed))
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		cfg:    cfg,
		net:    nw,
		nodes:  make([]*Node, cfg.N),
		roster: driver.NewRoster(cfg.Seed, cfg.N),
	}
	seeds := make([]peer.ID, cfg.InitDegree)
	for u := 0; u < cfg.N; u++ {
		core, err := cfg.NewCore()
		if err != nil {
			return nil, fmt.Errorf("runtime: core for node %d: %w", u, err)
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

// nodesSnapshot copies the node slice under the read lock. Iterating the
// copy keeps long operations (ticking a round, snapshotting views) off the
// lock so churn never waits behind them.
func (c *Cluster) nodesSnapshot() []*Node {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Node, len(c.nodes))
	copy(out, c.nodes)
	return out
}

// Nodes returns a snapshot of the cluster's node slice (nil entries for
// departed nodes). The copy is the caller's to keep; it does not observe
// later churn.
func (c *Cluster) Nodes() []*Node { return c.nodesSnapshot() }

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
	for _, n := range c.nodesSnapshot() {
		if n != nil {
			n.Start()
		}
	}
}

// Stop terminates every node and the drain timer.
func (c *Cluster) Stop() {
	for _, n := range c.nodesSnapshot() {
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
	for _, n := range c.nodesSnapshot() {
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

// Views snapshots all node views (nil entries for departed nodes).
func (c *Cluster) Views() []*view.View {
	nodes := c.nodesSnapshot()
	out := make([]*view.View, len(nodes))
	for i, n := range nodes {
		if n != nil {
			out[i] = n.ViewSnapshot()
		}
	}
	return out
}

// Snapshot returns the current membership graph.
func (c *Cluster) Snapshot() *graph.Graph {
	return graph.FromViews(c.Views())
}

// Counters sums the per-node counters over all live nodes.
func (c *Cluster) Counters() NodeCounters {
	var sum NodeCounters
	for _, n := range c.nodesSnapshot() {
		if n == nil {
			continue
		}
		sum.Add(n.Counters())
	}
	return sum
}

// Traffic reports the network counters in the substrate-neutral shape
// shared with the sequential engine (see metrics.Traffic for the unified
// counting semantics).
func (c *Cluster) Traffic() metrics.Traffic {
	nc := c.net.Counters()
	return metrics.Traffic{
		Sends:          nc.Sent,
		Losses:         nc.Lost,
		Deliveries:     nc.Delivered,
		DeadLetters:    nc.NoRoute,
		LinkLosses:     nc.LinkLost,
		PartitionDrops: nc.PartitionDropped,
		Delayed:        nc.Delayed,
	}
}

// CheckInvariants validates the protocol's per-view invariant (Observation
// 5.1 for S&F) on every node.
func (c *Cluster) CheckInvariants() error {
	for _, n := range c.nodesSnapshot() {
		if n == nil {
			continue
		}
		if err := n.CheckInvariants(); err != nil {
			return err
		}
	}
	return nil
}

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
	c.mu.Unlock()
	// Unregister and stop outside the cluster lock: Stop waits for an
	// in-flight Tick, which may be blocked in a receive handler.
	c.net.Register(u, nil)
	node.Stop()
}

// AddNode (re)activates node u with the given seed ids (at least
// max(2, dL), per the paper's join rule) and starts its gossip loop when
// start is set; callers driving TickRound manually simply include it in
// subsequent rounds. Each activation gets a fresh RNG stream derived from
// (cluster seed, id, incarnation). Safe to call while the cluster is
// running.
func (c *Cluster) AddNode(u peer.ID, seeds []peer.ID, start bool) error {
	c.mu.Lock()
	if int(u) < 0 || int(u) >= len(c.nodes) {
		c.mu.Unlock()
		return fmt.Errorf("runtime: node id %v outside cluster universe", u)
	}
	if c.nodes[u] != nil {
		c.mu.Unlock()
		return fmt.Errorf("runtime: node %v is already active", u)
	}
	core, err := c.cfg.NewCore()
	if err != nil {
		c.mu.Unlock()
		return fmt.Errorf("runtime: core for node %v: %w", u, err)
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
