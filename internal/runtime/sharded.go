package runtime

import (
	"context"
	"fmt"
	"math/bits"
	gort "runtime"
	gotrace "runtime/trace"
	"sync"

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
// engine keeps the exact same protocol code (the StepCores: one shared by
// every node, or one per node for a protocol.PerNode protocol) but
// reorganizes the execution for scale:
//
//   - Node state is flat: all views live in one contiguous id array (one
//     s-slot window per node, which a join empties with view.Empty and the
//     step core seeds in place; snapshots read it directly), per-node RNGs are
//     values in the node records, the step core a stateless protocol shares
//     is one value in each shard (a record holds no interface word for it, and
//     set-up and rejoin build none), liveness is one bit per node in a dense
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
//     round's messages. A message is a 20-byte header in its lane, and a lane
//     takes room in its row's pool only for what is filed into it, so a row
//     nothing is filed into (the reply set under a protocol that never
//     replies) holds no header. Rows and columns live in neither the engine
//     nor the shards but in the job table newSharded builds: one shardJob per
//     shard and phase kind, holding the shard, the one column its phase may
//     read (a column is read-only by type, protocol.Lane) and the one row it
//     may write. A pool worker receives a job and can name nothing else.
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
//     step writes are lines nobody touched since that node last acted — 232
//     bytes a node at s = 40 (a 72-byte record and a 160-byte window), 23 MB
//     at n = 100k, three or four cache misses per message,
//     taken one after the other: a verdict and a receive step are several
//     hundred instructions, and the next message's loads do not fit in the
//     reorder window beside them. So deliver and drain take their input a run
//     at a time — the at most protocol.MaxRun headers that lie consecutively in
//     a lane (five cache lines), or in a chunk of the delay calendar — and
//     touch starts the misses of the whole run first: a tight loop that reads
//     every destination's node record (the view header at its front, a word
//     of the RNG state at its back), a second that reads a slot on every cache
//     line of every destination's window (view.Touch), and only then the
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
//     with a drain phase in which every shard takes the rounds that came due
//     — liveness per message in (due, enqueue) order, then the receive step,
//     straight from the calendar's chunks — before the initiate phase runs.
//     The drain hands the drained rounds' chunks back to the calendar, and
//     the same tick's deliver phases park into them, so a calendar holds
//     what is in flight. Replies to drained messages are delivered like any
//     others.
//   - Between phases the gate holder does O(shards) work and touches no
//     message: it advances the calendar clocks, sums counters to learn
//     whether the last phase filed anything, and hands the deciders the fault
//     stack's configuration (faults.Conditions.Sync) at the start of a tick.
//   - Results are bit-identical for any worker count: shard geometry depends
//     only on n (never on GOMAXPROCS), every shard's job runs in node order
//     on exactly one goroutine per phase, whichever claims it, a column is
//     walked in source-shard order whichever workers filled it, and every
//     random draw comes from a stream that belongs to one node or one shard.
//
// Concurrency contract: all public methods are safe for concurrent use.
// They serialize through a capacity-1 token channel (gate) instead of a
// mutex, deliberately: the tick must dispatch to the worker pool (channel
// sends and receives) while the engine is exclusively held, and the repo's
// lock discipline — enforced by sfvet's lockreach analyzer —
// forbids blocking operations under a sync.Mutex because a handler running
// under a peer's lock can deadlock against it. That hazard cannot arise
// here: pool workers never acquire the gate (the pool type holds nothing but
// its channels, and a worker is fed its jobs by the gate holder), so the
// holder's channel operations with the pool cannot cycle back to the gate.
// The token channel makes that reasoning structural rather than suppressed.

// Tick phases, one job table row each. Initiate and drain file into mail set
// 0; phaseDeliver+p consumes set p and files replies into set 1-p.
const (
	phaseInitiate = iota
	phaseDrain
	phaseDeliver
	phases = phaseDeliver + 2
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
// its window of the shared slot array and its deterministic RNG. Everything a
// receive step reads for a destination is in this record but the step core,
// which is the shard's (one for every node, unless the protocol is
// protocol.PerNode), and liveness, which is asked for every message (see
// ShardedCluster.live).
type shardedNode struct {
	view view.View
	rng  rng.RNG
}

// shard owns everything a phase worker may touch for the contiguous id range
// [lo, lo+len(nodes)). Inside a phase only the goroutine that claimed the
// shard's job runs its methods; outside phases only the gate holder reaches
// it. It holds no reference to the engine or to another shard; the mail a
// phase reads and writes is in the job, not here.
type shard struct {
	lo    peer.ID       // id of nodes[0]
	nodes []shardedNode // this shard's window of the node records
	live  liveSet       // the engine's bitset; phases only read it

	// The step cores: shared runs every node, unless the protocol is
	// protocol.PerNode and cores, the shard's window of the engine's core
	// slab, holds a core per node instead.
	shared protocol.StepCore
	cores  []protocol.StepCore

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

// shardJob is one shard's work in one phase kind: the shard, the column of
// the mail set a deliver phase consumes (the lanes addressed to the shard's
// nodes, by source shard; nil in the other phases) and the row of the set
// the phase files into (the shard's own sorting outbox, lane d of it bucket
// shard → d). newSharded builds every job once; it is all a worker is given.
type shardJob struct {
	sh    *shard
	in    []protocol.Lane
	out   *protocol.Outbox
	phase int
}

// phaseRegions names the runtime/trace region a job runs in by its phase
// kind, so an execution trace (go test -trace, or /debug/pprof/trace on a
// daemon) shows every worker's share of each phase. A region costs nothing
// while no trace is being taken.
var phaseRegions = [phaseDeliver + 1]string{
	phaseInitiate: "phase initiate",
	phaseDrain:    "phase drain",
	phaseDeliver:  "phase deliver",
}

// run executes the job's phase body on its shard.
func (j *shardJob) run() {
	defer gotrace.StartRegion(context.Background(), phaseRegions[j.phase]).End()
	switch j.phase {
	case phaseInitiate:
		j.sh.initiate(j.out)
	case phaseDrain:
		j.sh.drain(j.out)
	default:
		j.sh.deliver(j.in, j.out)
	}
}

// pool is the engine's worker pool, and holds only its channels: a worker
// names the job it received and nothing else. jobs carries a phase's jobs
// from the gate holder, done one token per job a worker ran, and quit
// (closed by Close) shuts the pool down.
type pool struct {
	jobs chan *shardJob
	done chan struct{}
	quit chan struct{}
}

// work is one pool goroutine: it runs jobs as they come until quit.
func (p *pool) work() {
	for {
		select {
		case <-p.quit:
			return
		case j := <-p.jobs:
			j.run()
			p.done <- struct{}{}
		}
	}
}

// ShardedCluster is the sharded synchronous tick engine. Construct with New
// (EngineSharded); call Close when done to release the worker pool.
type ShardedCluster struct {
	cfg        Config
	src        coreSource // the step cores, and the view size s of every node
	n          int
	shardShift uint // log2(shardSize): a destination id maps to its shard with a shift

	// gate is the engine's exclusivity token (capacity 1, token present
	// when idle): receive to acquire, send to release. See the package
	// comment above for why this is a channel, not a mutex.
	gate chan struct{}

	pool      pool
	closeOnce sync.Once

	// jobs[p] is phase p's job of every shard, in shard order.
	jobs [phases][]shardJob

	// Everything below is the gate holder's; phases reach the shards only
	// through their jobs. slots is the n*s id array behind every view (node
	// u's view wraps window u), kept for the bulk snapshot. live is written
	// by activate and RemoveNode; the shards hold its header and read it
	// inside phases, where no one writes it, so a word that two shards share
	// is safe. filed is the number of messages the steps had emitted when the
	// gate holder last looked (settle).
	shards []shard
	roster *driver.Roster // per-node incarnations and seed derivation
	slots  []peer.ID
	live   liveSet
	filed  int
}

// newSharded builds a sharded tick cluster with the circulant bootstrap
// topology (the same initial overlay newCluster wires), from a Config New
// has resolved and its step cores.
func newSharded(cfg Config, src coreSource) (*ShardedCluster, error) {
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

	s := src.s
	e := &ShardedCluster{
		cfg:        cfg,
		src:        src,
		n:          cfg.N,
		shardShift: shift,
		gate:       make(chan struct{}, 1),
		pool: pool{
			jobs: make(chan *shardJob, nshards),
			done: make(chan struct{}, nshards),
			quit: make(chan struct{}),
		},

		shards: make([]shard, nshards),
		roster: driver.NewRoster(cfg.Seed, cfg.N),
		slots:  make([]peer.ID, cfg.N*s),
		live:   make(liveSet, (cfg.N+63)/64),
	}
	nodes := make([]shardedNode, cfg.N) // one slab, like slots; a shard holds its window
	var cores []protocol.StepCore
	if src.shared == nil {
		cores = make([]protocol.StepCore, cfg.N)
	}
	// The two mail sets: shard k's row of set p at rows[2*k+p].
	rows := make([]protocol.Outbox, 2*nshards)
	for i := range rows {
		rows[i] = protocol.Sorted(nshards, shift)
	}
	for p := range e.jobs {
		e.jobs[p] = make([]shardJob, nshards)
	}
	for k := range e.shards {
		lo := k * shardSize
		sh := &e.shards[k]
		hi := min(lo+shardSize, cfg.N)
		*sh = shard{
			lo: peer.ID(lo), nodes: nodes[lo:hi], live: e.live, shared: src.shared,
			// A deliver phase reads a ruled message's liveness off the bitset
			// and hands it to RouteBy; the router's callback, bound to the
			// bitset itself (which is never reallocated), answers for the
			// drained ones. It rules through the shard's decider and needs
			// no stream of its own.
			router: *driver.NewRouter(cfg.Conditions, nil, e.live.has),
		}
		if cores != nil {
			sh.cores = cores[lo:hi]
		}
		cfg.Conditions.Attach(&sh.dec, rng.DeriveSeed(cfg.Seed, verdictStream, int64(k)))
		e.jobs[phaseInitiate][k] = shardJob{sh: sh, out: &rows[2*k], phase: phaseInitiate}
		e.jobs[phaseDrain][k] = shardJob{sh: sh, out: &rows[2*k], phase: phaseDrain}
		for set := 0; set < 2; set++ {
			col := make([]protocol.Lane, nshards)
			for src := range col {
				col[src] = rows[2*src+set].Lane(k)
			}
			e.jobs[phaseDeliver+set][k] = shardJob{sh: sh, in: col, out: &rows[2*k+1-set], phase: phaseDeliver}
		}
	}

	seeds := make([]peer.ID, cfg.InitDegree)
	for u := 0; u < cfg.N; u++ {
		driver.Circulant(peer.ID(u), cfg.N, seeds)
		if err := e.activate(peer.ID(u), seeds); err != nil {
			return nil, fmt.Errorf("runtime: node %d: %w", u, err)
		}
	}

	for w := 1; w < workers; w++ {
		go e.pool.work()
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

// activate installs a view and an RNG stream for node u, and its core when
// the protocol is protocol.PerNode: the core seeds the view straight into
// node u's window of the slot array, emptied first, so nothing is allocated
// but a PerNode core. Callers hold the gate (or, in newSharded, are the only
// reference holder).
func (e *ShardedCluster) activate(u peer.ID, seeds []peer.ID) error {
	core, err := e.src.core(u)
	if err != nil {
		return err
	}
	sh := e.shardOf(u)
	nd := sh.node(u)
	s := e.src.s
	nd.view = view.Empty(e.slots[int(u)*s : (int(u)+1)*s : (int(u)+1)*s])
	if err := core.SeedView(&nd.view, seeds); err != nil {
		return err
	}
	if sh.cores != nil {
		sh.cores[u-sh.lo] = core
	}
	nd.rng = rng.NewState(e.roster.SeedFor(u))
	e.live[u>>6] |= 1 << (uint(u) & 63)
	return nil
}

// shardOf returns the shard that owns node u. Callers hold the gate.
func (e *ShardedCluster) shardOf(u peer.ID) *shard { return &e.shards[int(u)>>e.shardShift] }

// node returns the record of node u, which must lie in the shard's range: an
// id outside it indexes out of range instead of reaching a neighbour.
func (sh *shard) node(u peer.ID) *shardedNode { return &sh.nodes[u-sh.lo] }

// core returns the step core of node u, which must lie in the shard's range.
func (sh *shard) core(u peer.ID) protocol.StepCore {
	if sh.cores != nil {
		return sh.cores[u-sh.lo]
	}
	return sh.shared
}

// runPhase executes phase p's job of every shard: queue them all for the
// pool, run the ones no worker has claimed, and join. Any goroutine may run
// any job; each runs exactly once per phase, in node order — which is why
// results cannot depend on the worker count. With one worker there is no
// pool goroutine and the gate holder claims every job. Called with the gate
// held; the pool never touches the gate, so these channel operations cannot
// deadlock against it, and the queue holds a whole phase, so queueing never
// blocks.
func (e *ShardedCluster) runPhase(p int) {
	jobs := e.jobs[p]
	for i := range jobs {
		e.pool.jobs <- &jobs[i]
	}
	pooled := len(jobs) // the jobs a worker will report done
claim:
	for {
		select {
		case j := <-e.pool.jobs:
			j.run()
			pooled--
		default:
			break claim
		}
	}
	for ; pooled > 0; pooled-- {
		<-e.pool.done
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
		cnt.Initiated(sh.core(u).InitiateBatch(&nd.view, u, &nd.rng, out))
	}
	sh.cnt.Add(cnt)
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
// draws a delay parks in the shard's own calendar. A message costs two calls:
// the ruling (RouteBy) and the receive step (ReceiveBatch), which is written
// out here and in drain rather than in a helper the compiler would not
// inline.
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
				if sh.router.RouteBy(&sh.dec, m, ids, sh.live.has(m.To)) != driver.Delivered {
					continue
				}
				nd := sh.node(m.To)
				pkt := protocol.Packet{Kind: m.Kind, From: m.From, IDs: ids, Dup: m.Dup}
				cnt.Received(sh.core(m.To).ReceiveBatch(&nd.view, m.To, pkt, &nd.rng, out))
			}
		}
	}
	sink(touched)
	sh.cnt.Add(cnt)
}

// drain delivers the shard's delayed messages due by the current tick: it
// walks each due round's runs in (due, enqueue) order — a run is one chunk of
// the calendar, as long as deliver's at most, and touched the same way —
// resolves liveness per message at drain time (a message to a node that
// departed while in flight is a dead letter, exactly as on the other
// substrates; the fault stack already ruled when the message parked) and
// runs the receive steps from the calendar itself. The last DueBatch call,
// which finds nothing further due, returns the drained rounds' chunks to the
// calendar, for this tick's parks. Replies go to out, the shard's row of mail
// set 0, like a round's first messages.
func (sh *shard) drain(out *protocol.Outbox) {
	out.Reset()
	var cnt NodeCounters
	var touched uint64
	for {
		runs, ok := sh.router.DueBatch()
		if !ok {
			break
		}
		for run := runs.Next(); run != nil; run = runs.Next() {
			touched += sh.touch(run)
			for i := range run {
				m := &run[i]
				if !sh.router.Deliverable(m.To) {
					continue
				}
				nd := sh.node(m.To)
				pkt := protocol.Packet{Kind: m.Kind, From: m.From, IDs: runs.MsgIDs(m), Dup: m.Dup}
				cnt.Received(sh.core(m.To).ReceiveBatch(&nd.view, m.To, pkt, &nd.rng, out))
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
	for p := 0; ; p ^= 1 {
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
// once, at the start. The gate holder's steps run in trace regions of their
// own, the phase jobs it claims nested in them.
//
//vet:hotpath
func (e *ShardedCluster) TickRound() {
	<-e.gate
	ctx := context.Background()
	r := gotrace.StartRegion(ctx, "tick sync")
	e.cfg.Conditions.Sync()
	r.End()
	r = gotrace.StartRegion(ctx, "tick advance")
	e.advance()
	r.End()
	e.runPhase(phaseInitiate)
	r = gotrace.StartRegion(ctx, "tick settle")
	e.settle()
	r.End()
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
// hold of the gate, into one slab: a constant number of allocations, not two
// per live node, which is what keeps snapshot cost sane at 10^5+ nodes.
func (e *ShardedCluster) Views() []*view.View { return views(e, e.n, e.src.s) }

// EachNode calls fn for every live node in id order, with the gate held for
// the whole pass.
func (e *ShardedCluster) EachNode(fn func(u peer.ID, lv *view.View, core protocol.StepCore)) {
	<-e.gate
	defer func() { e.gate <- struct{}{} }()
	for u := peer.ID(0); int(u) < e.n; u++ {
		if e.live.has(u) {
			sh := e.shardOf(u)
			fn(u, &sh.node(u).view, sh.core(u))
		}
	}
}

// Snapshot returns the current membership graph, built straight from the
// slot array and the liveness bitset in one hold of the gate: no view is
// copied, and the graph is a constant number of allocations at any n.
func (e *ShardedCluster) Snapshot() *graph.Graph {
	<-e.gate
	defer func() { e.gate <- struct{}{} }()
	return graph.FromSlots(e.slots, e.src.s, e.live.has)
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
// node, in one hold of the gate.
func (e *ShardedCluster) CheckInvariants() error { return checkInvariants(e) }

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
	e.closeOnce.Do(func() { close(e.pool.quit) })
}
