package runtime

import (
	"fmt"
	"time"

	"sendforget/internal/driver"
	"sendforget/internal/faults"
	"sendforget/internal/graph"
	"sendforget/internal/metrics"
	"sendforget/internal/peer"
	"sendforget/internal/protocol"
	"sendforget/internal/view"
)

// Substrate is the single execution-backend interface: the sequential
// discrete-event engine, the goroutine-per-node cluster, and the sharded
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
	// Snapshot returns the current membership graph.
	Snapshot() *graph.Graph
	// Traffic reports the transport ledger in the substrate-neutral shape
	// (see metrics.Traffic for the unified counting semantics).
	Traffic() metrics.Traffic
	// Counters sums the per-node protocol counters (ticks, sends,
	// receives, replies, duplications, self-loops, deleted ids) over all
	// live nodes — the node-level ledger the management API's /metrics
	// endpoint exports next to Traffic.
	Counters() NodeCounters
	// Conditions returns the fault-injection stack for mid-run
	// reconfiguration (partitions, link overrides).
	Conditions() *faults.Conditions
	// CheckInvariants validates the protocol's per-view invariant on every
	// live node.
	CheckInvariants() error
	// AddNode (re)activates node u with the given seed ids (at least
	// max(2, dL) per the paper's join rule). The start flag launches the
	// node's own gossip loop on timer-driven substrates and is ignored by
	// tick-driven ones.
	AddNode(u peer.ID, seeds []peer.ID, start bool) error
	// RemoveNode makes node u leave: no protocol action, its id decays
	// from other views, in-flight messages to it become dead letters.
	RemoveNode(u peer.ID)
	// Close releases the substrate's resources (worker pools, timers).
	// The substrate must not be used after Close; Close is idempotent.
	Close()
}

// The three concrete backends all satisfy Substrate.
var (
	_ Substrate = (*Cluster)(nil)
	_ Substrate = (*ShardedCluster)(nil)
	_ Substrate = (*seqSubstrate)(nil)
)

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
	// NewCore builds one fresh protocol step core per node. Cores hold
	// per-node state and are never shared across nodes.
	NewCore protocol.CoreFactory
	// InitDegree is the circulant bootstrap outdegree (0 selects an even
	// value of about half the core's view size).
	InitDegree int
	// Loss is the uniform message loss rate, ignored when Conditions is
	// set.
	Loss float64
	// Conditions, when non-nil, is the fault-injection stack consulted per
	// message instead of plain uniform loss: burst models, per-link
	// overrides, partitions, and delivery delay. The instance must be
	// dedicated to this substrate (stateful models would otherwise
	// interleave streams across runs).
	Conditions *faults.Conditions
	// Seed drives the fault-decision stream and the per-node RNGs (0
	// selects 1).
	Seed int64
	// Period is each node's gossip period for timer-driven operation
	// (cluster only; TickRound works without timers). Defaults to 10ms for
	// fast examples.
	Period time.Duration
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
// core factory checks, the seed and bootstrap-degree defaults, and the fault
// stack (Conditions, or the paper's uniform loss at rate Loss) — so the
// constructors receive a Config with those fields final.
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
	var err error
	if cfg.InitDegree, err = driver.BootstrapDegree(cfg.NewCore, cfg.N, cfg.InitDegree); err != nil {
		return nil, err
	}
	if cfg.Conditions == nil {
		if cfg.Conditions, err = faults.FromRate(cfg.Loss); err != nil {
			return nil, err
		}
	}
	switch cfg.Engine {
	case EngineSeq:
		return newSeq(cfg)
	case EngineCluster, "":
		return newCluster(cfg)
	case EngineSharded:
		return newSharded(cfg)
	}
	return nil, fmt.Errorf("runtime: unknown engine %q", cfg.Engine)
}
