package runtime

import (
	"fmt"
	"math/bits"
	gort "runtime"
	"sync"
	"sync/atomic"

	"sendforget/internal/driver"
	"sendforget/internal/faults"
	"sendforget/internal/graph"
	"sendforget/internal/metrics"
	"sendforget/internal/peer"
	"sendforget/internal/protocol"
	"sendforget/internal/rng"
	"sendforget/internal/view"
)

// This file is the sharded synchronous tick engine: the 10^5..10^6-node
// counterpart of Cluster. Cluster models the deployment shape — one
// goroutine, one mutex, one transport registration per node — which tops out
// around n=500 per tick because every round pays n lock acquisitions, n
// handler-map dispatches, and several allocations per message. The sharded
// engine keeps the exact same protocol code (the per-node StepCores) but
// reorganizes the execution for scale:
//
//   - Node state is flat: all views live in one contiguous id array (one
//     s-slot window per node, wrapped by view.Wrap), per-node RNGs are
//     values in the node records, liveness is one bit per node in a dense
//     bitset (n/8 bytes, small enough to stay cached under the route
//     pass), and per-node event counters are replaced by one counter block
//     per shard, summed at snapshot time.
//   - A shard is a type. Nodes are partitioned into contiguous id ranges,
//     and one shard value owns everything a phase worker may touch for its
//     range. The phase bodies are methods of *shard, which holds no pointer
//     to the engine: another shard's state, the router, the gate and the
//     roster are not nameable from phase code, so the compiler checks what
//     an analyzer used to infer from an index.
//   - A tick is three phases. Initiate: a bounded worker pool runs each
//     shard's initiate steps, appending messages to the shard's outbox
//     (reused flat buffers — zero steady-state allocations).
//     Route: a single sequential pass walks the outboxes in shard order,
//     applies the fault stack per message (preserving one deterministic
//     RNG stream for loss/delay decisions, exactly like the chunk-merge
//     discipline of the markov CSR kernel), and copies each survivor into
//     the inbox of its destination shard. Deliver: the pool walks each
//     inbox front to back, running the receive steps; replies loop back
//     through route until quiet. An inbox holds the messages themselves,
//     so a deliver phase reads one contiguous buffer and nothing it reads
//     is an arena it appends to.
//   - Delayed messages take the same path. The route pass parks them in the
//     router's delay calendar (one reused arena per due round); each tick
//     starts by draining the round that came due as one more deliver phase —
//     liveness resolved per message in (due, enqueue) order, survivors
//     copied to their destination inboxes, replies routed like any other
//     generation — before the initiate phase runs.
//   - Results are bit-identical for any worker count: shard geometry
//     depends only on n (never on GOMAXPROCS), every shard is processed
//     in node order by exactly one worker, and all cross-shard merging
//     happens in the sequential route pass.
//
// Concurrency contract: all public methods are safe for concurrent use.
// They serialize through a capacity-1 token channel (gate) instead of a
// mutex, deliberately: the tick must dispatch to the worker pool (channel
// sends and receives) while the engine is exclusively held, and the repo's
// lock discipline — enforced by sfvet's lockreach analyzer —
// forbids blocking operations under a sync.Mutex because a handler running
// under a peer's lock can deadlock against it. That hazard cannot arise
// here: pool workers never acquire the gate (they are fed work and state
// exclusively by the gate holder), so the holder's channel operations with
// the pool cannot cycle back to the gate. The token channel makes that
// reasoning structural rather than suppressed.

// Tick phases executed by the worker pool.
const (
	phaseInitiate int32 = iota
	phaseDeliver
)

// liveSet is a dense bitset over node ids: bit u is set while node u is
// active.
type liveSet []uint64

func (b liveSet) has(u peer.ID) bool { return b[u>>6]&(1<<(uint(u)&63)) != 0 }

// shardedNode packs one node's per-message state: the view header wrapping
// its window of the shared slot array, its deterministic RNG, and its step
// core. Everything the deliver phase reads for a destination is in this
// record; liveness, which the sequential passes ask for every message, is
// not (see ShardedCluster.live).
type shardedNode struct {
	view view.View
	rng  rng.RNG
	core protocol.StepCore
}

// shard owns everything a phase worker may touch for the contiguous id range
// [lo, lo+len(nodes)). Between barrier phases only the worker that stole the
// shard runs its methods; outside phases only the gate holder reaches it.
// It holds no reference to the engine or to another shard.
type shard struct {
	// in leads the struct: the route pass and the drain file every message
	// into its destination shard's inbox, and this header is all they touch
	// there. The deliver phase walks it front to back and empties it.
	in protocol.Outbox
	// out is the initiate phase output and reply the deliver phase output:
	// the owning worker resets and fills them, the route pass reads them.
	out, reply protocol.Outbox
	cnt        NodeCounters // summed over shards at snapshot time

	lo    peer.ID       // id of nodes[0]
	nodes []shardedNode // this shard's window of the node records
	live  liveSet       // the engine's bitset; phases only read it
}

// ShardedCluster is the sharded synchronous tick engine. Construct with New
// (EngineSharded); call Close when done to release the worker pool.
type ShardedCluster struct {
	cfg        Config
	n, s       int
	shardShift uint // log2(shardSize): a destination id maps to its shard with a shift
	nshards    int  // len(shards), which a phase worker may not read
	workers    int

	// gate is the engine's exclusivity token (capacity 1, token present
	// when idle): receive to acquire, send to release. See the package
	// comment above for why this is a channel, not a mutex.
	gate chan struct{}

	// Pool plumbing. work carries the phase id to parked workers; done
	// collects one token per wake; quit (closed by Close) shuts the pool
	// down.
	work      chan int32
	done      chan struct{}
	quit      chan struct{}
	closeOnce sync.Once
	nextShard atomic.Int32

	// shards is indexed inside a barrier phase by one expression, runShards'
	// with the stolen index; outside phases only the gate holder touches it.
	shards []shard        //vet:confined shard
	roster *driver.Roster // per-node incarnations and seed derivation

	// What the gate holder alone touches. slots is the n*s id array behind
	// every view (node u's view wraps window u), kept for the bulk snapshot.
	// live is written by activate and RemoveNode; the shards hold its header
	// and read it inside phases, where no one writes it, so a word that two
	// shards share is safe. router is the shared transmission discipline
	// (fault decisions, delay calendar, traffic ledger), drawing from one
	// deterministic stream consumed in merged shard order.
	slots  []peer.ID      //vet:confined gate
	live   liveSet        //vet:confined gate
	router *driver.Router //vet:confined gate
}

// newSharded builds a sharded tick cluster with the circulant bootstrap
// topology (the same initial overlay newCluster wires), from a Config New
// has resolved.
func newSharded(cfg Config) (*ShardedCluster, error) {
	probe, err := cfg.NewCore()
	if err != nil {
		return nil, fmt.Errorf("runtime: core factory: %w", err)
	}
	s := probe.ViewSize()
	if s < 1 {
		return nil, fmt.Errorf("runtime: core view size %d", s)
	}

	shardSize := cfg.ShardSize
	if shardSize == 0 {
		shardSize = defaultShardSize(cfg.N)
	}
	if shardSize < 1 || shardSize&(shardSize-1) != 0 {
		return nil, fmt.Errorf("runtime: shard size %d is not a power of two", shardSize)
	}
	nshards := (cfg.N + shardSize - 1) / shardSize
	workers := cfg.Workers
	if workers <= 0 {
		workers = gort.GOMAXPROCS(0)
	}
	if workers > nshards {
		workers = nshards
	}

	e := &ShardedCluster{
		cfg:        cfg,
		n:          cfg.N,
		s:          s,
		shardShift: uint(bits.TrailingZeros(uint(shardSize))),
		nshards:    nshards,
		workers:    workers,
		gate:       make(chan struct{}, 1),
		work:       make(chan int32),
		done:       make(chan struct{}),
		quit:       make(chan struct{}),

		shards: make([]shard, nshards),
		roster: driver.NewRoster(cfg.Seed, cfg.N),
		slots:  make([]peer.ID, cfg.N*s),
		live:   make(liveSet, (cfg.N+63)/64),
	}
	nodes := make([]shardedNode, cfg.N) // one slab, like slots; a shard holds its window
	for k := range e.shards {
		lo := k * shardSize
		e.shards[k] = shard{lo: peer.ID(lo), nodes: nodes[lo:min(lo+shardSize, cfg.N)], live: e.live}
	}
	// The router asks for liveness per routed and per drained message, always
	// under the gate. Its callback is bound to the bitset itself (which is
	// never reallocated): one load, no engine record behind it.
	e.router = driver.NewRouter(cfg.Conditions, rng.New(cfg.Seed), e.live.has)

	seeds := make([]peer.ID, cfg.InitDegree)
	for u := 0; u < cfg.N; u++ {
		driver.Circulant(peer.ID(u), cfg.N, seeds)
		if err := e.activate(peer.ID(u), seeds); err != nil {
			return nil, fmt.Errorf("runtime: node %d: %w", u, err)
		}
	}

	for w := 1; w < e.workers; w++ {
		go e.worker()
	}
	e.gate <- struct{}{} // the engine starts idle
	return e, nil
}

// defaultShardSize picks the nodes-per-shard geometry from n alone: 256
// preferred (enough shards for work stealing at n >= 10^4), grown so that at
// most 1024 shards — and hence buffer sets — exist at n = 10^6. Results
// depend on the geometry, so it must never consult GOMAXPROCS.
func defaultShardSize(n int) int {
	const preferred, maxShards = 256, 1024
	size := preferred
	if min := (n + maxShards - 1) / maxShards; size < min {
		// Grow to the next power of two so the shard-of-destination map in
		// the route pass stays a shift at every n.
		size = 1 << uint(bits.Len(uint(min-1)))
	}
	return size
}

// activate installs a fresh core, view, and RNG stream for node u. Callers
// hold the gate (or, in newSharded, are the only reference holder).
func (e *ShardedCluster) activate(u peer.ID, seeds []peer.ID) error {
	core, err := e.cfg.NewCore()
	if err != nil {
		return fmt.Errorf("runtime: core for node %v: %w", u, err)
	}
	if core.ViewSize() != e.s {
		return fmt.Errorf("runtime: core for node %v has view size %d, cluster expects %d", u, core.ViewSize(), e.s)
	}
	sv, err := core.SeedView(seeds)
	if err != nil {
		return err
	}
	window := e.slots[int(u)*e.s : (int(u)+1)*e.s]
	for i := 0; i < e.s; i++ {
		window[i] = sv.Slot(i)
	}
	nd := e.shardOf(u).node(u)
	nd.view = view.Wrap(window)
	nd.core = core
	nd.rng = rng.NewState(e.roster.SeedFor(u))
	e.live[u>>6] |= 1 << (uint(u) & 63)
	return nil
}

// shardOf returns the shard that owns node u. Callers hold the gate.
func (e *ShardedCluster) shardOf(u peer.ID) *shard { return &e.shards[int(u)>>e.shardShift] }

// node returns the record of node u, which must lie in the shard's range: an
// id outside it indexes out of range instead of reaching a neighbour.
func (sh *shard) node(u peer.ID) *shardedNode { return &sh.nodes[u-sh.lo] }

// worker is one parked pool worker: each wake token carries a phase id; the
// worker steals shards until the phase is exhausted, then reports done.
func (e *ShardedCluster) worker() {
	for {
		select {
		case <-e.quit:
			return
		case p := <-e.work:
			e.runShards(p)
			e.done <- struct{}{}
		}
	}
}

// runShards processes shards of phase p until none remain, stealing shard
// indices from the shared counter. Any worker may run any shard; each shard
// runs exactly once per phase, in node order, on one worker — which is why
// results cannot depend on the worker count. The stolen index is spent here:
// the phase bodies see the one shard it names and nothing else.
func (e *ShardedCluster) runShards(p int32) {
	for {
		k := int(e.nextShard.Add(1)) - 1
		if k >= e.nshards {
			return
		}
		sh := &e.shards[k]
		switch p {
		case phaseInitiate:
			sh.initiate()
		case phaseDeliver:
			sh.deliver()
		}
	}
}

// runPhase executes one phase across all shards: wake the pool, participate,
// and join. Called with the gate held; the pool never touches the gate, so
// these channel operations cannot deadlock against it.
func (e *ShardedCluster) runPhase(p int32) {
	e.nextShard.Store(0)
	if e.workers <= 1 {
		e.runShards(p)
		return
	}
	for w := 1; w < e.workers; w++ {
		e.work <- p
	}
	e.runShards(p)
	for w := 1; w < e.workers; w++ {
		<-e.done
	}
}

// initiate runs the initiate step of every live node of the shard, appending
// outgoing messages to the shard outbox and accumulating the counters locally
// (one write to the shard's block per phase, none in the loop).
func (sh *shard) initiate() {
	sh.out.Reset() // the previous round's messages were consumed by deliver
	var cnt NodeCounters
	for i := range sh.nodes {
		u := sh.lo + peer.ID(i)
		if !sh.live.has(u) {
			continue
		}
		nd := &sh.nodes[i]
		cnt.Initiated(nd.core.InitiateBatch(&nd.view, u, &nd.rng, &sh.out))
	}
	sh.cnt.Add(cnt)
}

// deliver runs the receive step for every message in the shard's inbox,
// front to back (the order the sequential route pass filed them in, which is
// what makes it deterministic), and empties the inbox. Replies go to the
// shard's reply outbox and face the fault stack in the next route pass. The
// route pass files by destination shard, so every m.To lies in this shard.
func (sh *shard) deliver() {
	sh.reply.Reset() // the previous generation's replies were consumed by route
	var cnt NodeCounters
	for i := range sh.in.Msgs {
		m := &sh.in.Msgs[i]
		nd := sh.node(m.To)
		pkt := protocol.Packet{Kind: m.Kind, From: m.From, IDs: sh.in.MsgIDs(m), Dup: m.Dup}
		cnt.Received(nd.core.ReceiveBatch(&nd.view, m.To, pkt, &nd.rng, &sh.reply))
	}
	sh.in.Reset()
	sh.cnt.Add(cnt)
}

// route is the sequential merge pass over what phase p produced: it walks the
// shards' outboxes (after initiate) or reply outboxes (after deliver) in shard
// order and rules on every message with the fault stack, drawing from the
// single fault-decision stream in that fixed order (the same discipline that
// makes the markov CSR kernel bit-reproducible: parallel phases produce
// per-chunk buffers, one deterministic order consumes them). Survivors are
// copied into the destination shard's inbox; delayed messages are copied out
// of the transient arena into the router's delay calendar. It returns whether
// any message was filed for delivery.
func (e *ShardedCluster) route(p int32) bool {
	delivered := false
	// One condition-stack session for the whole pass: the stack is locked
	// once here instead of once per message (route is sequential, so the
	// single-owner contract holds trivially). The router rules per message
	// — drop, park, dead letter, or deliver — and the filing of survivors
	// stays here.
	ses := e.cfg.Conditions.Begin()
	for k := range e.shards {
		ob := &e.shards[k].out
		if p == phaseDeliver {
			ob = &e.shards[k].reply
		}
		for i := range ob.Msgs {
			m := &ob.Msgs[i]
			msg := protocol.Message{Kind: m.Kind, From: m.From, IDs: ob.MsgIDs(m), Dup: m.Dup}
			if e.router.RouteIn(&ses, m.To, msg) == driver.Delivered {
				e.shardOf(m.To).in.AppendFrom(ob, m)
				delivered = true
			}
		}
	}
	ses.Close()
	return delivered
}

// drainDue does for the delayed messages due by the current tick what route
// does for fresh ones: it walks the due round's calendar bucket in (due,
// enqueue) order, resolves liveness per message at drain time (a message to
// a node that departed while in flight is a dead letter, exactly as on the
// other substrates; the fault stack already ruled when the message parked),
// copies the deliverable ones into their inboxes, and settles them — a
// deliver phase, with replies routed like any other generation.
//
//vet:hotpath
func (e *ShardedCluster) drainDue() {
	for {
		ob, from := e.router.DueBatch()
		if ob == nil {
			return
		}
		delivered := false
		for i := from; i < len(ob.Msgs); i++ {
			if m := &ob.Msgs[i]; e.router.Deliverable(m.To) {
				e.shardOf(m.To).in.AppendFrom(ob, m)
				delivered = true
			}
		}
		e.settle(delivered)
	}
}

// settle runs deliver phases until the engine is quiet: while the last
// route pass or drain filed messages (delivered), the pool delivers them and
// the replies they produced are routed as the next generation. Reply chains
// terminate for every current protocol (replies never generate further
// replies), so this loop runs at most twice.
func (e *ShardedCluster) settle(delivered bool) {
	for delivered {
		e.runPhase(phaseDeliver)
		delivered = e.route(phaseDeliver)
	}
}

// TickRound drives one synchronous round: the delay calendar delivers what
// came due (a deliver phase of its own), every live node initiates once
// (initiate phase), the fault stack rules on the round's messages in shard
// order (route), and survivors' receive steps run (deliver phase), with
// reply generations looping through route until the round is quiet.
//
//vet:hotpath
func (e *ShardedCluster) TickRound() {
	<-e.gate
	e.router.Tick()
	e.drainDue()
	e.runPhase(phaseInitiate)
	e.settle(e.route(phaseInitiate))
	e.gate <- struct{}{}
}

// DrainDelayed advances the tick clock without initiating any actions until
// the delay calendar is empty, delivering everything in flight — the sharded
// counterpart of Engine.DrainDelayed, run at the end of a comparison so the
// traffic identity (metrics.Traffic.Conserved) holds exactly.
func (e *ShardedCluster) DrainDelayed() {
	<-e.gate
	for e.router.Pending() > 0 {
		e.router.Tick()
		e.drainDue()
	}
	e.gate <- struct{}{}
}

// Pending returns the number of messages parked in the delay calendar.
func (e *ShardedCluster) Pending() int {
	<-e.gate
	n := e.router.Pending()
	e.gate <- struct{}{}
	return n
}

// Views snapshots all node views (nil entries for departed nodes) in one
// bulk pass: the engine is held once for the whole copy instead of locking
// every node individually, and the copy is three allocations — one slab for
// every slot, one for the view headers, one for the result — instead of two
// per live node, which is what keeps snapshot cost sane at 10^5+ nodes.
func (e *ShardedCluster) Views() []*view.View {
	<-e.gate
	slab := make([]peer.ID, len(e.slots))
	copy(slab, e.slots)
	views := make([]view.View, e.n)
	out := make([]*view.View, e.n)
	for u := range out {
		if e.live.has(peer.ID(u)) {
			// Capacity-clipped, so no operation on one snapshot view can
			// reach its neighbor's window.
			views[u] = view.Wrap(slab[u*e.s : (u+1)*e.s : (u+1)*e.s])
			out[u] = &views[u]
		}
	}
	e.gate <- struct{}{}
	return out
}

// Snapshot returns the current membership graph.
func (e *ShardedCluster) Snapshot() *graph.Graph {
	return graph.FromViews(e.Views())
}

// Counters sums the per-shard counters — O(shards), not O(n) per-node lock
// acquisitions.
func (e *ShardedCluster) Counters() NodeCounters {
	<-e.gate
	var sum NodeCounters
	for k := range e.shards {
		sum.Add(e.shards[k].cnt)
	}
	e.gate <- struct{}{}
	return sum
}

// Traffic reports the router's ledger.
func (e *ShardedCluster) Traffic() metrics.Traffic {
	<-e.gate
	t := e.router.Traffic()
	e.gate <- struct{}{}
	return t
}

// Conditions returns the fault-injection stack for mid-run reconfiguration
// (partitions, link overrides).
func (e *ShardedCluster) Conditions() *faults.Conditions { return e.cfg.Conditions }

// CheckInvariants validates the protocol's per-view invariant on every live
// node, in one bulk pass.
func (e *ShardedCluster) CheckInvariants() error {
	<-e.gate
	defer func() { e.gate <- struct{}{} }()
	for u := 0; u < e.n; u++ {
		if !e.live.has(peer.ID(u)) {
			continue
		}
		nd := e.shardOf(peer.ID(u)).node(peer.ID(u))
		if err := nd.core.CheckView(&nd.view); err != nil {
			return fmt.Errorf("runtime: node %v: %w", peer.ID(u), err)
		}
	}
	return nil
}

// RemoveNode makes node u leave the cluster, the paper's leave semantics:
// no protocol action, its id decays from other views, and in-flight
// messages to it become dead letters. Idempotent, safe during concurrent
// ticking.
func (e *ShardedCluster) RemoveNode(u peer.ID) {
	if int(u) < 0 || int(u) >= e.n {
		return
	}
	<-e.gate
	e.live[u>>6] &^= 1 << (uint(u) & 63)
	e.gate <- struct{}{}
}

// AddNode (re)activates node u with the given seed ids (at least max(2, dL)
// per the paper's join rule). Each activation draws a fresh RNG stream
// derived from (cluster seed, id, incarnation), exactly like
// Cluster.AddNode. The start flag exists for Cluster API compatibility and
// is ignored: the sharded engine is tick-driven, so a (re)joined node simply
// participates in subsequent TickRounds.
func (e *ShardedCluster) AddNode(u peer.ID, seeds []peer.ID, start bool) error {
	_ = start
	if int(u) < 0 || int(u) >= e.n {
		return fmt.Errorf("runtime: node id %v outside cluster universe", u)
	}
	if err := checkSeeds(seeds, e.n); err != nil {
		return err
	}
	<-e.gate
	defer func() { e.gate <- struct{}{} }()
	if e.live.has(u) {
		return fmt.Errorf("runtime: node %v is already active", u)
	}
	e.roster.Bump(u)
	return e.activate(u, seeds)
}

// Close shuts the worker pool down. The engine must not be used after
// Close; Close is idempotent and safe to call while the engine is idle.
func (e *ShardedCluster) Close() {
	e.closeOnce.Do(func() { close(e.quit) })
}
