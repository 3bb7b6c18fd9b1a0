// Package membership is the public API of the sendforget module: a
// loss-tolerant gossip membership service implementing the Send & Forget
// protocol of Gurevich and Keidar (PODC 2009).
//
// Each participant maintains a small local view of peer ids that the
// protocol keeps uniform, load-balanced, and mostly independent even when
// messages are silently lost. Use Thresholds to pick the protocol
// parameters for a desired expected degree, NewCluster for an in-process
// cluster (testing, simulation, or embedding), and NewUDPNode for a real
// networked participant.
//
// A member gossips once per round, and the caller chooses what a round is:
// Cluster.Gossip steps rounds by hand, deterministically, while Start on a
// Cluster or a Node runs them by the wall clock, once per GossipPeriod,
// until Stop or Close.
//
// The heavy machinery — the protocol itself, the simulator, the paper's
// analysis — lives under internal/; this package re-exports the pieces a
// downstream user needs with a stable surface.
package membership

import (
	"cmp"
	"fmt"
	"sync"
	"time"

	"sendforget/internal/analysis"
	"sendforget/internal/graph"
	"sendforget/internal/peer"
	"sendforget/internal/protocol"
	"sendforget/internal/protocol/sendforget"
	"sendforget/internal/runtime"
	"sendforget/internal/transport"
)

// NodeID identifies a member. IDs for in-process clusters are dense
// integers 0..N-1; UDP deployments may use any distinct values.
type NodeID = peer.ID

// Thresholds returns protocol parameters (dL, s) for a desired lossless
// expected outdegree dHat and a duplication/deletion probability budget
// delta, per Section 6.3 of the paper. The paper's worked example:
// Thresholds(30, 0.01) yields dL=18 and s within an even step or two of 40.
func Thresholds(dHat int, delta float64) (dl, s int, err error) {
	return analysis.Thresholds(dHat, delta)
}

// ConnectivityMinDL returns the minimal duplication threshold that keeps
// the overlay weakly connected with probability at least 1-eps at loss
// rate l and duplication budget delta (Section 7.4).
func ConnectivityMinDL(l, delta, eps float64) (int, error) {
	return analysis.ConnectivityMinDL(l, delta, eps)
}

// ClusterConfig configures an in-process cluster.
type ClusterConfig struct {
	// N is the number of nodes (>= 3: the bootstrap views need an even
	// outdegree below N).
	N int
	// S is the view size (even, >= 6); DL the duplication threshold (even,
	// <= S-6). Pick them with Thresholds.
	S, DL int
	// Loss is the simulated uniform message loss rate in [0, 1).
	Loss float64
	// GossipPeriod is each node's action period when Start is used
	// (default 10ms).
	GossipPeriod time.Duration
	// Seed makes runs reproducible; 0 selects a fixed default.
	Seed int64
}

// Cluster is an in-process S&F cluster over a lossy in-memory network,
// driven round by round with Gossip or by the wall clock with Start.
type Cluster struct {
	inner  *runtime.Cluster
	period time.Duration
}

// NewCluster builds (but does not start) a cluster.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	sub, err := runtime.New(runtime.Config{
		Engine: runtime.EngineCluster,
		N:      cfg.N,
		NewCore: func() (protocol.StepCore, error) {
			return sendforget.NewCore(cfg.S, cfg.DL)
		},
		// Bootstrap outdegree midway between dL and s, below N — the
		// well-provisioned start the paper's analysis assumes.
		InitDegree: sendforget.DefaultInitDegree(cfg.S, cfg.DL, cfg.N),
		Loss:       cfg.Loss,
		Seed:       cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	// The public Cluster exposes Start/Sample, which need the concrete
	// cluster backend; the factory guarantees the kind.
	return &Cluster{inner: sub.(*runtime.Cluster), period: cmp.Or(cfg.GossipPeriod, 10*time.Millisecond)}, nil
}

// Start has every node gossip once per GossipPeriod until Stop. A stopped
// cluster can be started again.
func (c *Cluster) Start() { c.inner.Start(c.period) }

// Stop ends the gossip and waits for it.
func (c *Cluster) Stop() { c.inner.Stop() }

// Gossip drives one synchronous round (every node initiates once) without
// wall-clock timers — deterministic alternative to Start.
func (c *Cluster) Gossip(rounds int) {
	for i := 0; i < rounds; i++ {
		c.inner.TickRound()
	}
}

// Sample returns node u's current view: an approximately uniform,
// independent sample of live member ids (Properties M3/M4 of the paper).
// It returns nil when u is not a current member: an id outside [0, N) or
// one that has left (Remove) and not rejoined.
func (c *Cluster) Sample(u NodeID) []NodeID {
	n := c.inner.Node(u)
	if n == nil {
		return nil
	}
	return n.ViewSnapshot().IDs()
}

// Stats summarizes the membership graph over the current members: a node
// that has left (Remove) and not rejoined is not a vertex, and its id, while
// it lingers in views, is an edge that joins nothing.
type Stats struct {
	EdgesPerNode      float64
	MeanOutdegree     float64
	MeanIndegree      float64
	IndegreeVariance  float64
	Components        int
	WeaklyConnected   bool
	DependentFraction float64 // visible self-edges + duplicates
}

// Stats measures the current membership graph over the current members,
// reading the views in place.
func (c *Cluster) Stats() Stats {
	q := graph.NewPass(c.inner.N()).Live(c.inner.EachNode)
	return Stats{
		EdgesPerNode:      float64(q.Edges) / max(float64(q.Vertices), 1),
		MeanOutdegree:     q.MeanOut,
		MeanIndegree:      q.MeanIn,
		IndegreeVariance:  q.VarIn,
		Components:        q.Components,
		WeaklyConnected:   q.Connected(),
		DependentFraction: q.DependentFraction(),
	}
}

// CheckInvariants verifies the protocol invariant (Observation 5.1) on
// every node; useful in tests of embedding applications.
func (c *Cluster) CheckInvariants() error { return c.inner.CheckInvariants() }

// Remove makes node u leave: it simply stops participating (the paper's
// leave semantics); its id decays from the other views over ~s^2/dL rounds.
func (c *Cluster) Remove(u NodeID) { c.inner.RemoveNode(u) }

// Add (re)activates node u, seeding its view with the given ids — copy a
// live node's Sample() per the paper's join rule. The node gossips in the
// next round: the next Gossip, or the next period while Start runs.
func (c *Cluster) Add(u NodeID, seeds []NodeID) error {
	return c.inner.AddNode(u, seeds, false)
}

// NodeConfig configures a networked UDP node.
type NodeConfig struct {
	// ID is this node's identity (must be unique in the deployment).
	ID NodeID
	// S, DL as in ClusterConfig.
	S, DL int
	// GossipPeriod between initiated actions (default 100ms).
	GossipPeriod time.Duration
	// ListenAddr is the UDP address to bind, e.g. "0.0.0.0:7946".
	ListenAddr string
	// Peers maps known member ids to their UDP addresses — the bootstrap
	// directory. Further entries are learned from gossip: messages carry
	// addresses alongside ids, and sender addresses come from datagram
	// sources, so only the seed peers need static entries.
	Peers map[NodeID]string
	// Advertise is the address other nodes should learn for this node
	// (default: the bound listen address — fine on a flat network, needs
	// overriding behind NAT).
	Advertise string
	// Seeds are the initial view entries (at least max(2, DL) ids that
	// appear in Peers).
	Seeds []NodeID
}

// Node is a networked S&F participant.
type Node struct {
	inner  *runtime.Node
	ep     *transport.Endpoint
	period time.Duration

	startOnce, closeOnce sync.Once
	stop                 chan struct{} // closed by Close
	wg                   sync.WaitGroup
}

// NewUDPNode binds the socket, wires the directory, and returns a node
// ready to Start.
func NewUDPNode(cfg NodeConfig) (*Node, error) {
	if cfg.ListenAddr == "" {
		return nil, fmt.Errorf("membership: ListenAddr is required")
	}
	core, err := sendforget.NewCore(cfg.S, cfg.DL)
	if err != nil {
		return nil, err
	}
	inner, ep, err := runtime.NewUDPNode(runtime.NodeConfig{
		ID:   cfg.ID,
		Core: core,
	}, cfg.Seeds, cfg.ListenAddr, cfg.Advertise, func(ep *transport.Endpoint) error {
		for id, addr := range cfg.Peers {
			if err := ep.AddPeer(id, addr); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Node{inner: inner, ep: ep, period: cmp.Or(cfg.GossipPeriod, 100*time.Millisecond), stop: make(chan struct{})}, nil
}

// Addr returns the bound listen address (useful with port 0).
func (n *Node) Addr() string { return n.ep.Addr().String() }

// KnownPeers returns the size of the node's id-to-address directory,
// including entries learned from gossip.
func (n *Node) KnownPeers() int { return n.ep.KnownPeers() }

// Start has the node gossip once per GossipPeriod until Close. A second
// Start does nothing.
func (n *Node) Start() {
	n.startOnce.Do(func() {
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			for p := runtime.Every(n.period, n.stop); p.Next(); {
				n.inner.Tick()
			}
		}()
	})
}

// Sample returns the node's current view ids.
func (n *Node) Sample() []NodeID { return n.inner.ViewSnapshot().IDs() }

// Close stops gossiping and releases the socket. Leaving the membership
// needs nothing else: per the paper, a leaver "simply stops participating
// in the protocol".
func (n *Node) Close() error {
	n.closeOnce.Do(func() { close(n.stop) })
	n.wg.Wait()
	return n.ep.Close()
}
