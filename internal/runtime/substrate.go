package runtime

import (
	"fmt"

	"sendforget/internal/driver"
	"sendforget/internal/faults"
	"sendforget/internal/graph"
	"sendforget/internal/metrics"
	"sendforget/internal/peer"
	"sendforget/internal/protocol"
	"sendforget/internal/view"
)

// Substrate is the single execution-backend interface: the sequential
// discrete-event engine (Seq), the goroutine-per-node cluster, and the sharded
// synchronous tick engine all satisfy it, so equivalence harnesses,
// benchmarks, and commands program against the interface and differ only in
// construction (runtime.New). All three backends drive the same per-node
// protocol.StepCores through the shared internal/driver transmission
// discipline; the substrate choice changes scheduling and scale, never
// protocol semantics (Proposition 5.2).
type Substrate interface {
	// TickRound drives one gossip round: the delay queue delivers what
	// came due, then every live node initiates once (the paper's round:
	// "the period of time during which each node is expected to initiate
	// exactly one action", Section 6.5).
	TickRound()
	// DrainDelayed advances the delay-queue clock without initiating any
	// actions until the queue is empty, so the traffic identity
	// metrics.Traffic.Conserved holds on the final counters.
	DrainDelayed()
	// Pending returns the number of messages parked in the delay queue.
	Pending() int
	// Views snapshots all node views (nil entries for departed nodes): a
	// copy, which later rounds do not write to. Callers must treat the
	// views as read-only.
	Views() []*view.View
	// N returns the size of the id universe: the nodes are 0..N()-1, live
	// or departed.
	N() int
	// Snapshot returns the current membership graph: a copy of every view.
	// Quality is read in place by a graph.Pass over EachNode instead; only
	// the benchmark module still calls Snapshot.
	Snapshot() *graph.Graph
	// Traffic reports the transport ledger in the substrate-neutral shape
	// (see metrics.Traffic for the unified counting semantics).
	Traffic() metrics.Traffic
	// Counters sums the per-node protocol counters (ticks, sends,
	// receives, replies, duplications, self-loops, deleted ids) over every
	// node since construction, departed nodes included, so no counter ever
	// decreases — the node-level ledger the management API's /metrics
	// endpoint exports next to Traffic.
	Counters() NodeCounters
	// Conditions returns the fault-injection stack for mid-run
	// reconfiguration (partitions, delay).
	Conditions() *faults.Conditions
	// CheckInvariants validates the protocol's per-view invariant on every
	// live node.
	CheckInvariants() error
	// EachNode calls fn for every live node in ascending id order, with the
	// node's own view and step core, while the substrate is held the way its
	// other readers hold it: Seq holds nothing, Cluster locks each node for
	// its call, ShardedCluster holds its gate for the whole pass. It is the
	// one read of per-node state (Views and CheckInvariants are built on it,
	// and so is any measurement of protocol-specific core state). fn only
	// reads, and must not call back into the substrate.
	EachNode(fn func(u peer.ID, lv *view.View, core protocol.StepCore))
	// AddNode (re)activates node u with the given seed ids (at least
	// max(2, dL) per the paper's join rule); the next round steps it. The
	// start flag does nothing on any engine: a running Cluster ticks
	// whichever node holds a slot.
	AddNode(u peer.ID, seeds []peer.ID, start bool) error
	// RemoveNode makes node u leave: no protocol action, its id decays
	// from other views, in-flight messages to it become dead letters.
	RemoveNode(u peer.ID)
	// Close releases the substrate's resources (worker pools, the
	// cluster's round loops).
	// The substrate must not be used after Close; Close is idempotent.
	Close()
}

// The three concrete backends all satisfy Substrate.
var (
	_ Substrate = (*Cluster)(nil)
	_ Substrate = (*ShardedCluster)(nil)
	_ Substrate = (*Seq)(nil)
)

// Run drives sub for the given number of rounds.
func Run(sub Substrate, rounds int) {
	for i := 0; i < rounds; i++ {
		sub.TickRound()
	}
}

// views copies the n-slot overlay of sub, whose views have s slots each,
// into one slab through EachNode (nil entries for departed nodes): three
// allocations and the visitor's closure at any n, and no later round writes
// to the copy. Every engine's Views is this body.
func views(sub Substrate, n, s int) []*view.View {
	slab := make([]peer.ID, n*s)
	vs := make([]view.View, n)
	out := make([]*view.View, n)
	sub.EachNode(func(u peer.ID, lv *view.View, _ protocol.StepCore) {
		// Capacity-clipped, so no operation on one copy can reach its
		// neighbour's window.
		w := slab[int(u)*s : (int(u)+1)*s : (int(u)+1)*s]
		for i := range w {
			w[i] = lv.Slot(i)
		}
		vs[u] = view.Wrap(w)
		out[u] = &vs[u]
	})
	return out
}

// checkInvariants verifies the protocol's per-view invariant (Observation
// 5.1 for S&F) on every live node of sub and reports the first violation.
// Every engine's CheckInvariants is this body.
func checkInvariants(sub Substrate) (err error) {
	sub.EachNode(func(u peer.ID, lv *view.View, core protocol.StepCore) {
		if err == nil {
			if e := core.CheckView(lv); e != nil {
				err = fmt.Errorf("runtime: node %v: %w", u, e)
			}
		}
	})
	return err
}

// coreSource hands the nodes of one substrate their step cores. New probes
// the factory once, and unless the probed core is protocol.PerNode it is
// every node's core: it holds only parameters, so building one per node, and
// one per rejoin, would only allocate. A PerNode protocol's node gets a core
// of its own from the factory at every activation.
type coreSource struct {
	shared  protocol.StepCore // the probed core; nil for a PerNode protocol
	factory protocol.CoreFactory
	s       int // the view size of every node
}

// newCoreSource probes f: its core, its view size, and whether one core may
// serve every node.
func newCoreSource(f protocol.CoreFactory) (coreSource, error) {
	probe, err := f()
	if err != nil {
		return coreSource{}, fmt.Errorf("runtime: core factory: %w", err)
	}
	src := coreSource{shared: probe, factory: f, s: probe.ViewSize()}
	if src.s < 1 {
		return coreSource{}, fmt.Errorf("runtime: core view size %d", src.s)
	}
	if _, perNode := probe.(protocol.PerNode); perNode {
		src.shared = nil
	}
	return src, nil
}

// core returns node u's step core for an activation: the shared one, or a
// fresh one held to the probed view size, since every engine keeps one size
// for all its nodes.
func (src coreSource) core(u peer.ID) (protocol.StepCore, error) {
	if src.shared != nil {
		return src.shared, nil
	}
	core, err := src.factory()
	if err != nil {
		return nil, fmt.Errorf("runtime: core for node %v: %w", u, err)
	}
	if core.ViewSize() != src.s {
		return nil, fmt.Errorf("runtime: core for node %v has view size %d, the substrate expects %d", u, core.ViewSize(), src.s)
	}
	return core, nil
}

// checkSeeds is the join check every backend's AddNode starts with: each
// seed id must name a slot of the n-node universe. One that does not would
// sit in the joiner's view and be gossiped to for ever — a dead letter per
// round, and on the sharded engine an index past the liveness bitset.
func checkSeeds(seeds []peer.ID, n int) error {
	for _, v := range seeds {
		if int(v) < 0 || int(v) >= n {
			return fmt.Errorf("runtime: seed id %v outside cluster universe [0, %d)", v, n)
		}
	}
	return nil
}

// EngineKind names an execution backend for Config.Engine and the -engine
// command-line flags.
type EngineKind string

const (
	// EngineSeq is the sequential discrete-event engine: uniform-random
	// scheduling with replacement, one goroutine, the paper's analysis
	// model (Section 5).
	EngineSeq EngineKind = "seq"
	// EngineCluster is the goroutine-per-node cluster over the in-memory
	// network: the deployment shape, practical to ~500 nodes per tick.
	EngineCluster EngineKind = "cluster"
	// EngineSharded is the sharded synchronous tick engine: flat state,
	// zero-alloc batch stepping, 10^5..10^6 nodes.
	EngineSharded EngineKind = "sharded"
)

// ParseEngine maps a command-line flag value to an EngineKind.
func ParseEngine(s string) (EngineKind, error) {
	switch EngineKind(s) {
	case EngineSeq, EngineCluster, EngineSharded:
		return EngineKind(s), nil
	}
	return "", fmt.Errorf("runtime: unknown engine %q (want seq, cluster, or sharded)", s)
}

// Config parameterizes New, the single constructor for every execution
// backend. Fields that apply to only one backend are ignored by the others.
type Config struct {
	// Engine selects the backend (default EngineCluster).
	Engine EngineKind
	// N is the number of node slots.
	N int
	// NewCore builds the protocol's step cores. New calls it once; unless
	// that core is protocol.PerNode it serves every node, and otherwise
	// every node gets a fresh one, again at every rejoin.
	NewCore protocol.CoreFactory
	// InitDegree is the circulant bootstrap outdegree (0 selects an even
	// value of about half the core's view size).
	InitDegree int
	// Loss is the uniform message loss rate, ignored when Conditions is
	// set.
	Loss float64
	// Conditions, when non-nil, is the fault-injection stack consulted per
	// message instead of plain uniform loss: burst and per-destination
	// loss models, partitions, and delivery delay. The instance must be
	// dedicated to this substrate (stateful models would otherwise
	// interleave streams across runs).
	Conditions *faults.Conditions
	// Seed drives the fault-decision stream and the per-node RNGs (0
	// selects 1).
	Seed int64
	// Workers bounds the worker pool (sharded only; 0 selects
	// min(GOMAXPROCS, shards), 1 runs every phase inline with no
	// goroutines at all). The worker count never influences results, only
	// wall-clock time.
	Workers int
	// ShardSize overrides the nodes-per-shard geometry (sharded only; a
	// power of two, or 0 for an automatic size that depends only on N,
	// keeping results machine-independent). Tests use small sizes to
	// exercise multi-shard paths at small n.
	ShardSize int
}

// New builds the configured execution backend. The concrete constructors
// are unexported, so this is the only way any package outside
// internal/runtime obtains a substrate: equivalence harnesses, benchmarks,
// and commands stay free of backend-specific branches beyond this call. It
// resolves what every backend resolves the same way — the node count and
// core factory checks, the step cores (one probe of the factory gives the
// view size every node of a substrate has, and, unless the protocol is
// protocol.PerNode, the one core every node runs), the seed and
// bootstrap-degree defaults, and the fault stack (Conditions, or the paper's
// uniform loss at rate Loss) — so the constructors receive a Config with
// those fields final, and the cores.
func New(cfg Config) (Substrate, error) {
	if cfg.N < 2 {
		return nil, fmt.Errorf("runtime: need at least 2 nodes, got %d", cfg.N)
	}
	if cfg.NewCore == nil {
		return nil, fmt.Errorf("runtime: config needs a core factory")
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	src, err := newCoreSource(cfg.NewCore)
	if err != nil {
		return nil, err
	}
	if cfg.InitDegree, err = driver.BootstrapDegree(src.s, cfg.N, cfg.InitDegree); err != nil {
		return nil, err
	}
	if cfg.Conditions == nil {
		if cfg.Conditions, err = faults.FromRate(cfg.Loss); err != nil {
			return nil, err
		}
	}
	switch cfg.Engine {
	case EngineSeq:
		return newSeq(cfg, src)
	case EngineCluster, "":
		return newCluster(cfg, src)
	case EngineSharded:
		return newSharded(cfg, src)
	}
	return nil, fmt.Errorf("runtime: unknown engine %q", cfg.Engine)
}
