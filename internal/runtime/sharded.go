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
//     bitset (n/8 bytes, small enough to stay in every core's cache), and
//     per-node event counters are replaced by one counter block per shard,
//     summed at snapshot time.
//   - A shard is a type. Nodes are partitioned into contiguous id ranges,
//     and one shard value owns everything a phase worker may touch for its
//     range: node records, router, decider, counters. The phase bodies are
//     methods of *shard, which holds no pointer to the engine: another
//     shard's state, the gate and the roster are not nameable from phase
//     code, so the compiler checks what an analyzer used to infer from an
//     index.
//   - The outbox is the mail. With S shards a mail set is S rows, row k a
//     sorting outbox (protocol.Sorted) that files what shard k's steps emit
//     into S lanes by destination shard as the step appends it — one shift
//     picks the lane, and no step core knows. Lane d of row k is bucket
//     (k → d), and column d, the lanes d of all rows, is what was addressed to
//     shard d's nodes. Nothing is copied between the step that emits a
//     message and the step that receives it, and no goroutine walks all of a
//     round's messages. Rows and columns live in the engine, not in the
//     shards: runShards, which holds the stolen index, hands a phase body the
//     one row it may write and the one column it may read (a column is
//     read-only by type, protocol.Lane).
//   - The destination rules. A deliver phase has every shard walk its column
//     — bucket (k → d) for k in shard order, each in append order — and rule
//     on each message with the shard's own router: its own ledger, its own
//     delay calendar, its own decider attached to the fault stack with a
//     verdict stream of its own (rng.DeriveSeed(cluster seed, verdictStream,
//     shard index)), and the shared liveness bitset. The receive step runs
//     on the survivor where it lies. Replies go to the shard's row of the
//     *other* mail set — another shard may still be reading this shard's row
//     of the set being delivered — which the next deliver phase consumes;
//     phases alternate between the two sets until one files nothing. A row
//     is reset by its owner at the start of a phase that files into it.
//     Ledgers, pending counts and node counters are summed over shards at
//     snapshot time.
//   - A run at a time. A message's destination is a uniform sample of the
//     nodes (the paper's M3/M4), so the record and the view window its receive
//     step writes are lines nobody touched since that node last acted — 248
//     bytes a node, 25 MB at n = 100k, three or four cache misses per message,
//     taken one after the other: a verdict and a receive step are several
//     hundred instructions, and the next message's loads do not fit in the
//     reorder window beside them. So deliver and drain take their input a run
//     at a time — the at most protocol.MaxRun headers that lie consecutively in
//     a lane, the due bucket cut to the same length — and touch starts the
//     misses of the whole run first: a tight loop that reads every
//     destination's node record (the view header at its front, a word of the
//     RNG state at its back), a second that reads a slot on every cache line
//     of every destination's window (view.Touch), and only then the
//     per-message body in the order it always had — verdict, ledger, park or
//     liveness, receive step — so no draw, no counter and no message moves.
//     All touches come before any verdict because the loads must be issued
//     from loops that do nothing else: ruling first and touching only the
//     survivors puts a hundred-instruction verdict between two touches, two
//     or three misses overlap instead of sixteen, and that measured slower
//     than not touching at all. For the same reason a message about to be
//     dropped, parked or dead-lettered is touched like any other: asking
//     first costs what the touch saves (at 1% loss there is nothing to skip;
//     where two arrivals in three park, touching them for nothing measured
//     flat). A touch is plain loads of what the shard owns — a departed
//     node's record and window stay in place — added up, and the sum goes
//     once per phase to sink, a call the compiler cannot see into, so the
//     loads are kept; nothing is written, which a field for the sum would
//     have been.
//   - Delayed messages never leave their shard: a verdict that assigns a delay
//     parks the message in the ruling shard's calendar, and a tick starts
//     with a drain phase in which every shard takes the bucket that came due
//     — liveness per message in (due, enqueue) order, then the receive step,
//     straight from the calendar's arena — before the initiate phase runs.
//     Replies to drained messages are delivered like any others.
//   - Between phases the gate holder does O(shards) work and touches no
//     message: it advances the calendar clocks, sums counters to learn
//     whether the last phase filed anything, and exchanges configuration and
//     counters with the fault stack (faults.Conditions.Sync) at both ends of
//     a tick.
//   - Results are bit-identical for any worker count: shard geometry depends
//     only on n (never on GOMAXPROCS), every shard is processed in node order
//     by exactly one worker per phase, a column is walked in source-shard
//     order whichever workers filled it, and every random draw comes from a
//     stream that belongs to one node or one shard.
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

// Tick phases executed by the worker pool. Initiate and drain file into mail
// set 0; phaseDeliver+p consumes set p and files replies into set 1-p.
const (
	phaseInitiate int32 = iota
	phaseDrain
	phaseDeliver
)

// maxShards caps the shard count, and with it a mail set at maxShards²
// lanes, whatever n is.
const maxShards = 64

// verdictStream tags the per-shard fault-decision streams in the seed
// derivation, apart from every (node, incarnation) stream of the roster.
const verdictStream = -1

// liveSet is a dense bitset over node ids: bit u is set while node u is
// active.
type liveSet []uint64

func (b liveSet) has(u peer.ID) bool { return b[u>>6]&(1<<(uint(u)&63)) != 0 }

// shardedNode packs one node's per-message state: the view header wrapping
// its window of the shared slot array, its deterministic RNG, and its step
// core. Everything a receive step reads for a destination is in this record;
// liveness, which is asked for every message, is not (see
// ShardedCluster.live).
type shardedNode struct {
	view view.View
	rng  rng.RNG
	core protocol.StepCore
}

// shard owns everything a phase worker may touch for the contiguous id range
// [lo, lo+len(nodes)). Between barrier phases only the worker that stole the
// shard runs its methods; outside phases only the gate holder reaches it.
// It holds no reference to the engine or to another shard; the mail a phase
// reads and writes is handed to it, phase by phase, by runShards.
type shard struct {
	lo    peer.ID       // id of nodes[0]
	nodes []shardedNode // this shard's window of the node records
	live  liveSet       // the engine's bitset; phases only read it

	// The transmission discipline for messages addressed to this shard's
	// nodes: a seat of its own at the fault stack, verdict stream included
	// (dec), and ledger and delay calendar (router). They are what a phase
	// writes per message, and they are values, not pointers to small heap
	// objects that would share cache lines with their neighbours': here they
	// lie between what a phase only reads (above, and the next shard's) and
	// cnt, written once per phase.
	dec    faults.Decider
	router driver.Router
	cnt    NodeCounters // summed over shards at snapshot time
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
	shards []shard //vet:confined shard

	// The two mail sets, shard k's stake in set p at index 2*k+p: rows is the
	// sorting outbox its steps file into — lane d of it is bucket (k → d) —
	// and cols the lanes (src → k) of every shard's row, by source shard:
	// what was addressed to its nodes. Like shards, they are indexed inside a
	// phase only by runShards with the stolen index, which hands a phase body
	// the one row it may write and the one column it may read.
	rows []protocol.Outbox //vet:confined shard
	cols [][]protocol.Lane //vet:confined shard

	roster *driver.Roster // per-node incarnations and seed derivation

	// What the gate holder alone touches. slots is the n*s id array behind
	// every view (node u's view wraps window u), kept for the bulk snapshot.
	// live is written by activate and RemoveNode; the shards hold its header
	// and read it inside phases, where no one writes it, so a word that two
	// shards share is safe. filed is the number of messages the steps had
	// emitted when the gate holder last looked (settle).
	slots []peer.ID //vet:confined gate
	live  liveSet   //vet:confined gate
	filed int       //vet:confined gate
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
	if nshards > maxShards {
		return nil, fmt.Errorf("runtime: shard size %d splits %d nodes into %d shards, more than %d", shardSize, cfg.N, nshards, maxShards)
	}
	shift := uint(bits.TrailingZeros(uint(shardSize)))
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
		shardShift: shift,
		nshards:    nshards,
		workers:    workers,
		gate:       make(chan struct{}, 1),
		work:       make(chan int32),
		done:       make(chan struct{}),
		quit:       make(chan struct{}),

		shards: make([]shard, nshards),
		rows:   make([]protocol.Outbox, 2*nshards),
		cols:   make([][]protocol.Lane, 2*nshards),
		roster: driver.NewRoster(cfg.Seed, cfg.N),
		slots:  make([]peer.ID, cfg.N*s),
		live:   make(liveSet, (cfg.N+63)/64),
	}
	nodes := make([]shardedNode, cfg.N) // one slab, like slots; a shard holds its window
	for i := range e.rows {
		e.rows[i] = protocol.Sorted(nshards, shift)
	}
	for k := range e.shards {
		lo := k * shardSize
		e.shards[k] = shard{
			lo: peer.ID(lo), nodes: nodes[lo:min(lo+shardSize, cfg.N)], live: e.live,
			// The router asks for liveness per ruled and per drained message.
			// Its callback is bound to the bitset itself (which is never
			// reallocated): one load, no engine record behind it. It rules
			// through the shard's decider and needs no stream of its own.
			router: *driver.NewRouter(cfg.Conditions, nil, e.live.has),
		}
		cfg.Conditions.Attach(&e.shards[k].dec, rng.DeriveSeed(cfg.Seed, verdictStream, int64(k)))
		for p := 0; p < 2; p++ {
			col := make([]protocol.Lane, nshards)
			for src := range col {
				col[src] = e.rows[2*src+p].Lane(k)
			}
			e.cols[2*k+p] = col
		}
	}

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
// preferred, grown to the next power of two (the shard-of-destination map
// stays a shift at every n) so that there are at most maxShards shards.
// Results depend on the geometry, so it must never consult GOMAXPROCS.
func defaultShardSize(n int) int {
	size := 256
	for size*maxShards < n {
		size <<= 1
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
			sh.initiate(&e.rows[2*k])
		case phaseDrain:
			sh.drain(&e.rows[2*k])
		default:
			set := int(p - phaseDeliver)
			sh.deliver(e.cols[2*k+set], &e.rows[2*k+1-set])
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

// initiate runs the initiate step of every live node of the shard, sorting the
// outgoing messages into out, the shard's row of mail set 0, and accumulating
// the counters locally (one write to the shard's block per phase, none in the
// loop).
func (sh *shard) initiate(out *protocol.Outbox) {
	out.Reset() // the previous round's messages were consumed by deliver
	var cnt NodeCounters
	for i := range sh.nodes {
		u := sh.lo + peer.ID(i)
		if !sh.live.has(u) {
			continue
		}
		nd := &sh.nodes[i]
		cnt.Initiated(nd.core.InitiateBatch(&nd.view, u, &nd.rng, out))
	}
	sh.cnt.Add(cnt)
}

// receive runs the receive step for a message addressed to one of the shard's
// nodes, with the reply, if any, sorted into out.
func (sh *shard) receive(m *protocol.FlatMsg, ids []peer.ID, out *protocol.Outbox, cnt *NodeCounters) {
	nd := sh.node(m.To)
	pkt := protocol.Packet{Kind: m.Kind, From: m.From, IDs: ids, Dup: m.Dup}
	cnt.Received(nd.core.ReceiveBatch(&nd.view, m.To, pkt, &nd.rng, out))
}

// touch starts the cache misses of a run's destinations together (see "A run
// at a time" above): one tight loop over the node records — the view header at
// the front of each, the last word of the RNG state at the back — and then one
// over the view windows, a slot on every cache line. The windows get a loop of
// their own because their addresses are in the records: in a single loop every
// window load would queue behind its own record's miss. Everything read
// belongs to the shard whatever the router is about to decide, and nothing is
// written. The sum is the caller's to sink.
func (sh *shard) touch(run []protocol.FlatMsg) (sum uint64) {
	for i := range run {
		nd := sh.node(run[i].To)
		sum += uint64(nd.view.Size()) + nd.rng.Touch()
	}
	for i := range run {
		sum += uint64(sh.node(run[i].To).view.Touch())
	}
	return sum
}

// sink is where a phase leaves the sum of what it touched, once: a call the
// compiler cannot see into, so the loads that made the sum are kept.
//
//go:noinline
func sink(uint64) {}

// deliver rules on every message of in, the shard's column of one mail set —
// the lanes in source-shard order, each front to back, which no scheduler can
// change — and runs the receive step of each one the router lets through,
// a run at a time: the destinations of a run are touched before its first
// message is ruled on. Replies go to out, the shard's row of the other set:
// its row of this set may still be under another shard's eyes. A message that
// draws a delay parks in the shard's own calendar.
func (sh *shard) deliver(in []protocol.Lane, out *protocol.Outbox) {
	out.Reset() // consumed by the deliver phase before this one
	var cnt NodeCounters
	var touched uint64
	for _, lane := range in {
		for runs := lane.Runs(); ; {
			run := runs.Next()
			if run == nil {
				break
			}
			touched += sh.touch(run)
			for i := range run {
				m := &run[i]
				ids := lane.MsgIDs(m)
				if sh.router.RouteBy(&sh.dec, m, ids) == driver.Delivered {
					sh.receive(m, ids, out, &cnt)
				}
			}
		}
	}
	sink(touched)
	sh.cnt.Add(cnt)
}

// drain delivers the shard's delayed messages due by the current tick: it
// walks the due round's calendar bucket in (due, enqueue) order, in runs of
// the length deliver's have and touched the same way, resolves liveness per
// message at drain time (a message to a node that departed while in flight is
// a dead letter, exactly as on the other substrates; the fault stack already
// ruled when the message parked) and runs the receive steps from the bucket
// itself. Replies go to out, the shard's row of mail set 0, like a round's
// first messages.
func (sh *shard) drain(out *protocol.Outbox) {
	out.Reset()
	var cnt NodeCounters
	var touched uint64
	for {
		b, from := sh.router.DueBatch()
		if b == nil {
			break
		}
		for due := b.Msgs[from:]; len(due) > 0; {
			run := due[:min(len(due), protocol.MaxRun)]
			due = due[len(run):]
			touched += sh.touch(run)
			for i := range run {
				if m := &run[i]; sh.router.Deliverable(m.To) {
					sh.receive(m, b.MsgIDs(m), out, &cnt)
				}
			}
		}
	}
	sink(touched)
	sh.cnt.Add(cnt)
}

// settle runs deliver phases until the engine is quiet. The phase before it
// filed into mail set 0; each deliver phase consumes one set and files the
// replies into the other. Whether a phase filed anything is read off the
// shards' counters — every message a step emits is counted as a send or a
// reply — so no phase writes a flag. Reply chains terminate for every current
// protocol (replies never generate further replies), so this loop runs at
// most twice.
func (e *ShardedCluster) settle() {
	for p := int32(0); ; p ^= 1 {
		filed := 0
		for k := range e.shards {
			filed += e.shards[k].cnt.Sends + e.shards[k].cnt.Replies
		}
		if filed == e.filed {
			return
		}
		e.filed = filed
		e.runPhase(phaseDeliver + p)
	}
}

// advance moves every shard's calendar clock one round and delivers what
// came due: a drain phase, then the replies it provoked.
func (e *ShardedCluster) advance() {
	for k := range e.shards {
		e.shards[k].router.Tick()
	}
	if e.pending() > 0 {
		e.runPhase(phaseDrain)
		e.settle()
	}
}

// TickRound drives one synchronous round: the delay calendars deliver what
// came due (a drain phase), every live node initiates once (initiate phase),
// and every shard rules on and receives what was addressed to it (deliver
// phases, until a generation of replies is empty). The fault stack is read
// once, at the start, and handed the round's counters at the end.
//
//vet:hotpath
func (e *ShardedCluster) TickRound() {
	<-e.gate
	e.cfg.Conditions.Sync()
	e.advance()
	e.runPhase(phaseInitiate)
	e.settle()
	e.cfg.Conditions.Sync()
	e.gate <- struct{}{}
}

// DrainDelayed advances the tick clock without initiating any actions until
// the delay calendars are empty, delivering everything in flight — the sharded
// counterpart of Engine.DrainDelayed, run at the end of a comparison so the
// traffic identity (metrics.Traffic.Conserved) holds exactly.
func (e *ShardedCluster) DrainDelayed() {
	<-e.gate
	e.cfg.Conditions.Sync()
	for e.pending() > 0 {
		e.advance()
	}
	e.cfg.Conditions.Sync()
	e.gate <- struct{}{}
}

// pending sums the shards' delay calendars. Callers hold the gate.
func (e *ShardedCluster) pending() int {
	n := 0
	for k := range e.shards {
		n += e.shards[k].router.Pending()
	}
	return n
}

// Pending returns the number of messages parked in the delay calendars.
func (e *ShardedCluster) Pending() int {
	<-e.gate
	n := e.pending()
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

// Traffic sums the shards' ledgers.
func (e *ShardedCluster) Traffic() metrics.Traffic {
	<-e.gate
	var t metrics.Traffic
	for k := range e.shards {
		e.shards[k].router.AddTraffic(&t)
	}
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
