package runtime_test

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"sendforget/internal/driver"
	"sendforget/internal/faults"
	"sendforget/internal/graph"
	"sendforget/internal/loss"
	"sendforget/internal/metrics"
	"sendforget/internal/peer"
	"sendforget/internal/protocol"
	"sendforget/internal/protocol/flipper"
	"sendforget/internal/protocol/pushpull"
	"sendforget/internal/protocol/sendforget"
	"sendforget/internal/protocol/sfopt"
	"sendforget/internal/protocol/shuffle"
	"sendforget/internal/rng"
	"sendforget/internal/runtime"
	"sendforget/internal/stats"
	"sendforget/internal/view"
)

// This file is the cross-substrate harness behind Proposition 5.2, which is
// why one step core may run under any scheduler. A seeded generator draws a
// schedule over the whole Substrate and faults.Conditions surface, and the
// schedule is applied, op by op, to seq, cluster and sharded — the sharded
// engine at Workers 1 and 4, which must agree byte for byte after every op.
// After every op each substrate must pass CheckInvariants, report counters
// that never decrease, hold only ids of its universe, have a nil view exactly
// for the nodes the schedule has away, snapshot the membership graph its views
// induce, and have a fault stack whose tally accounts for its ledger; after
// every drain nothing may be pending and the ledger must be conserved. One
// schedule of each test draws the longest delay the fault stack accepts, so a
// drain walks faults.MaxDelay rounds on every engine. In probe mode
// (TestSubstrateProbeModel on all three engines, TestShardedLivenessModel
// across the sharded engine's shard geometry) the cores are probes and an
// exact model predicts the ledger, the counters and every node's receive
// count; in protocol mode
// (TestSubstrateEquivalence) the five real protocols run, and the final
// overlays must agree pairwise. A failing schedule is shrunk by dropping
// operations until none can go, and printed as a Go literal. The named
// scenarios at the end of the file are fixed schedules through the same
// checks.

// opKind names one operation of a schedule.
type opKind uint8

const (
	opTick      opKind = iota
	opAdd              // AddNode(u): a rejoin when u is away, refused when it is live or past n
	opRemove           // RemoveNode(u)
	opPartition        // Partition([0, u), [u, n))
	opHeal             // Heal()
	opRate             // SetBase: uniform loss at rate, or a Gilbert-Elliott burst model at it
	opDelay            // SetDelay(Delay{Fixed: d, Jitter: j})
	opDrain            // DrainDelayed()
)

var opNames = [...]string{"opTick", "opAdd", "opRemove", "opPartition", "opHeal", "opRate", "opDelay", "opDrain"}

type op struct {
	kind  opKind
	u     peer.ID
	rate  float64
	d, j  int
	burst bool
}

// GoString prints the op as a literal of this file.
func (o op) GoString() string {
	return fmt.Sprintf("{kind: %s, u: %d, rate: %g, d: %d, j: %d, burst: %t}", opNames[o.kind], o.u, o.rate, o.d, o.j, o.burst)
}

type schedule []op

func (s schedule) GoString() string {
	ops := make([]string, len(s))
	for i, o := range s {
		ops[i] = o.GoString()
	}
	return "schedule{" + strings.Join(ops, ", ") + "}"
}

// hotIDs are the ids on the edges of the liveness bitset's words, and the
// universe's ends: churn and probe traffic go to them about half the time.
func hotIDs(n int) []peer.ID {
	return []peer.ID{0, peer.ID(min(62, n-1)), peer.ID(min(63, n-1)), peer.ID(min(64, n-1)), peer.ID(n - 2), peer.ID(n - 1)}
}

// genSchedule draws ops operations over an n-node universe from r, one of them
// a delay of long rounds with a tick under it, and ends with a drain. Churn
// goes to the hot ids about half the time and, one time in sixteen, to id n,
// which AddNode must refuse and RemoveNode ignore. Without lossy every loss
// rate is 0 or 1 and every delay fixed, which the probe model follows
// exactly; lossy draws fractional rates, burst models and jittered delays
// instead.
func genSchedule(r *rng.RNG, n, ops int, lossy bool, long int) schedule {
	hot := hotIDs(n)
	pick := func() peer.ID {
		switch k := r.Intn(16); {
		case k == 0:
			return peer.ID(n)
		case k < 8:
			return hot[r.Intn(len(hot))]
		}
		return peer.ID(r.Intn(n))
	}
	rates := []float64{0, 0, 1}
	if lossy {
		rates = []float64{0, 0.02, 0.1}
	}
	at := r.Intn(ops)
	s := make(schedule, 0, ops+2)
	for i := 0; i < ops; i++ {
		o := op{kind: opTick}
		switch k := r.Intn(22); {
		case i == at:
			s = append(s, op{kind: opDelay, d: long}) // and a tick under it
		case k < 9:
		case k < 12:
			o = op{kind: opRemove, u: pick()}
		case k < 15:
			o = op{kind: opAdd, u: pick()}
		case k < 16:
			o = op{kind: opPartition, u: peer.ID(1 + r.Intn(n-1))}
		case k < 17:
			o = op{kind: opHeal}
		case k < 18:
			o = op{kind: opRate, rate: rates[r.Intn(len(rates))]}
			o.burst = lossy && o.rate > 0 && r.Intn(2) == 0
		case k < 20:
			o = op{kind: opDelay, d: r.Intn(4)}
			if lossy {
				o.j = r.Intn(3)
			}
		default:
			o = op{kind: opDrain}
		}
		s = append(s, o)
	}
	return append(s, op{kind: opDrain})
}

// probeNet is what the probe cores of one substrate share with the test: one
// slot per node, each written only by whoever runs the node's steps and read
// by the test between engine calls.
type probeNet struct {
	n    int
	hot  []peer.ID       // destinations drawn half the time
	sent [][]probeFlight // the messages node u initiated in the last tick, in order
	recv []int           // messages node u received
	bad  []int           // of those, messages whose payload did not arrive intact
}

// probeFlight is one probe message as the model tracks it.
type probeFlight struct {
	due      int
	to, from peer.ID
	request  bool // a request is answered with a reply to from
}

// probeSizes are the payload lengths the probe cores send: inline and arena.
var probeSizes = []int{0, 1, 2, 3, 8}

// probeCore is a step core whose traffic a test can predict exactly: every
// initiate step sends one message to a destination drawn from the whole id
// universe — away nodes, the sender itself and the bitset's edge ids included
// — and logs it; every receive step counts the message at the receiver,
// checks that the payload ([from, from+1, ...]) survived the trip, and
// answers a request with a three-id reply. A node the seq engine schedules
// twice in a round logs two flights.
type probeCore struct{ net *probeNet }

func (c probeCore) Name() string               { return "probe" }
func (c probeCore) ViewSize() int              { return 4 }
func (c probeCore) CheckView(*view.View) error { return nil }
func (c probeCore) payload(u peer.ID, k int) []peer.ID {
	ids := make([]peer.ID, k)
	for i := range ids {
		ids[i] = u + peer.ID(i)
	}
	return ids
}

func (c probeCore) SeedView(lv *view.View, seeds []peer.ID) error {
	for i := 0; i < len(seeds) && i < lv.Size(); i++ {
		lv.Set(i, seeds[i])
	}
	return nil
}

func (c probeCore) InitiateBatch(_ *view.View, u peer.ID, r *rng.RNG, out *protocol.Outbox) (int, int, bool) {
	to := peer.ID(r.Intn(c.net.n))
	if r.Intn(2) == 0 {
		to = c.net.hot[r.Intn(len(c.net.hot))]
	}
	kind, request := protocol.KindGossip, r.Intn(2) == 0
	if request {
		kind = protocol.KindRequest
	}
	out.Append(to, u, kind, false, c.payload(u, probeSizes[r.Intn(len(probeSizes))])...)
	c.net.sent[u] = append(c.net.sent[u], probeFlight{to: to, from: u, request: request})
	return 1, 0, true
}

func (c probeCore) ReceiveBatch(_ *view.View, u peer.ID, pkt protocol.Packet, _ *rng.RNG, out *protocol.Outbox) (bool, int) {
	c.net.recv[u]++
	for i, id := range pkt.IDs {
		if id != pkt.From+peer.ID(i) {
			c.net.bad[u]++
			break
		}
	}
	if pkt.Kind != protocol.KindRequest {
		return false, 0
	}
	out.Append(pkt.From, u, protocol.KindReply, false, c.payload(u, 3)...)
	return true, 0
}

// probeModel predicts a probe substrate from the flights its cores logged and
// the fault stack as the schedule set it — a two-way partition, all-or-nothing
// base loss, a fixed delay: the messages in flight, and what every
// node and the ledger must have counted.
type probeModel struct {
	away           []bool  // the rig's
	split          peer.ID // Partition([0, split), [split, n)); 0 when healed
	rate           float64
	delay, clock   int
	longest        int // the longest delay a message parked under
	queue          []probeFlight
	recv           []int
	ticks, replies int
	tr             metrics.Traffic
}

// route rules on one message the way the fault stack and the router do:
// partition, then the base model, then park it or resolve it against
// liveness now.
func (m *probeModel) route(f probeFlight) {
	m.tr.Sends++
	switch {
	case (f.from < m.split) != (f.to < m.split):
		m.tr.Losses++
		m.tr.PartitionDrops++
	case m.rate == 1:
		m.tr.Losses++
	case m.delay > 0:
		m.tr.Delayed++
		m.longest = max(m.longest, m.delay)
		f.due = m.clock + m.delay
		m.queue = append(m.queue, f)
	default:
		m.deliver(f)
	}
}

func (m *probeModel) deliver(f probeFlight) {
	if m.away[f.to] {
		m.tr.DeadLetters++
		return
	}
	m.tr.Deliveries++
	m.recv[f.to]++
	if f.request {
		m.replies++
		m.route(probeFlight{to: f.from, from: f.to})
	}
}

// advance moves the clock one round and delivers what came due.
func (m *probeModel) advance() {
	m.clock++
	var later []probeFlight
	due := m.queue
	m.queue = nil
	for _, f := range due {
		if f.due <= m.clock {
			m.deliver(f) // a reply parks into m.queue, due later
		} else {
			later = append(later, f)
		}
	}
	m.queue = append(later, m.queue...)
}

// apply follows op o. A tick delivers what came due and then routes the
// flights the cores logged: as many initiate steps as there are live nodes —
// with everyNode set (cluster and sharded step every node once) one per live
// node — and none by an away node.
func (m *probeModel) apply(o op, net *probeNet, everyNode bool) error {
	switch o.kind {
	case opTick:
		m.advance()
		flights, live := 0, 0
		for u, log := range net.sent {
			if !m.away[u] {
				live++
			}
			if m.away[u] && len(log) > 0 || everyNode && !m.away[u] && len(log) != 1 {
				return fmt.Errorf("node %d (away %v) initiated %d times", u, m.away[u], len(log))
			}
			flights += len(log)
			for _, f := range log {
				m.ticks++
				m.route(f)
			}
		}
		if flights != live {
			return fmt.Errorf("%d initiate steps for %d live nodes", flights, live)
		}
	case opPartition:
		m.split = o.u
	case opHeal:
		m.split = 0
	case opRate:
		m.rate = o.rate
	case opDelay:
		m.delay = o.d
	case opDrain:
		for len(m.queue) > 0 {
			// Nothing is due before the earliest due round: go straight to it.
			m.clock = slices.MinFunc(m.queue, func(a, b probeFlight) int { return a.due - b.due }).due - 1
			m.advance()
		}
	}
	return nil
}

// check holds the substrate to the model.
func (m *probeModel) check(net *probeNet, cnt runtime.NodeCounters, tr metrics.Traffic, pending int) error {
	for u := range m.recv {
		if net.recv[u] != m.recv[u] || net.bad[u] != 0 {
			return fmt.Errorf("node %d (away %v) received %d messages (%d damaged), model says %d", u, m.away[u], net.recv[u], net.bad[u], m.recv[u])
		}
	}
	if tr != m.tr {
		return fmt.Errorf("ledger %+v, model %+v", tr, m.tr)
	}
	if cnt.Ticks != m.ticks || cnt.Receives != m.tr.Deliveries || cnt.Replies != m.replies || cnt.Sends+cnt.Replies != m.tr.Sends {
		return fmt.Errorf("counters %+v, model ticks %d receives %d replies %d sends %d", cnt, m.ticks, m.tr.Deliveries, m.replies, m.tr.Sends)
	}
	if pending != len(m.queue) {
		return fmt.Errorf("%d pending, model has %d in flight", pending, len(m.queue))
	}
	return nil
}

// rigConfig is one substrate a schedule runs on. A twin is the previous
// rig's configuration at another worker count, and must agree with it byte
// for byte after every op.
type rigConfig struct {
	runtime.Config
	probe   bool // probe cores, a lossless stack and the exact model
	sfEdges bool // S&F: hold the views to the edge identity
	twin    bool
}

func (c rigConfig) String() string {
	return fmt.Sprintf("%s n=%d seed=%d shard=%d workers=%d", c.Engine, c.N, c.Seed, c.ShardSize, c.Workers)
}

// rig is one substrate under a schedule, with what the harness keeps beside
// it: which nodes are away, the last counters, ledger and views it read, and
// the outdegree the bootstrap and the joins added less what the leaves took.
type rig struct {
	rigConfig
	sub   runtime.Substrate
	away  []bool
	last  runtime.NodeCounters
	tr    metrics.Traffic
	views []*view.View
	edges int
	net   *probeNet
	m     *probeModel
}

func newRig(c rigConfig) (*rig, error) {
	g := &rig{rigConfig: c, away: make([]bool, c.N)}
	if c.probe {
		g.net = &probeNet{n: c.N, hot: hotIDs(c.N), sent: make([][]probeFlight, c.N), recv: make([]int, c.N), bad: make([]int, c.N)}
		g.m = &probeModel{away: g.away, recv: make([]int, c.N)}
		c.NewCore = func() (protocol.StepCore, error) { return probeCore{g.net}, nil }
		c.Conditions = faults.Lossless()
	}
	sub, err := runtime.New(c.Config)
	if err != nil {
		return nil, err
	}
	g.sub, g.views = sub, sub.Views()
	g.edges = outdegrees(g.views)
	return g, nil
}

func outdegrees(views []*view.View) int {
	sum := 0
	for _, v := range views {
		if v != nil {
			sum += v.Outdegree()
		}
	}
	return sum
}

// apply runs op o on the substrate, and on the model in probe mode, and then
// checks the rig.
func (g *rig) apply(o op) error {
	sub, cond := g.sub, g.sub.Conditions()
	var err error
	switch o.kind {
	case opTick:
		if g.net != nil {
			for u := range g.net.sent {
				g.net.sent[u] = g.net.sent[u][:0]
			}
		}
		sub.TickRound()
	case opAdd:
		seeds := make([]peer.ID, 8)
		driver.Circulant(o.u, g.N, seeds)
		joinable := int(o.u) < g.N && g.away[o.u]
		if err := sub.AddNode(o.u, seeds, false); (err == nil) != joinable {
			return fmt.Errorf("AddNode(%d) = %v with the node able to join = %v", o.u, err, joinable)
		} else if err == nil {
			g.away[o.u] = false
			g.edges += sub.Views()[o.u].Outdegree()
		}
	case opRemove:
		sub.RemoveNode(o.u)
		if int(o.u) < g.N && !g.away[o.u] {
			g.edges -= g.views[o.u].Outdegree()
			g.away[o.u] = true
		}
	case opPartition:
		ids := make([]peer.ID, g.N)
		for u := range ids {
			ids[u] = peer.ID(u)
		}
		cond.Partition(ids[:o.u], ids[o.u:])
	case opHeal:
		cond.Heal()
	case opRate:
		m := loss.Model(loss.MustUniform(o.rate))
		if o.burst {
			m, err = loss.BurstyWithRate(o.rate, 4)
		}
		if err == nil {
			err = cond.SetBase(m)
		}
	case opDelay:
		err = cond.SetDelay(faults.Delay{Fixed: o.d, Jitter: o.j})
	case opDrain:
		sub.DrainDelayed()
	}
	if err != nil {
		return err
	}
	if g.m != nil {
		if err := g.m.apply(o, g.net, g.Engine != runtime.EngineSeq); err != nil {
			return err
		}
	}
	return g.check(o.kind == opDrain)
}

func counterFields(c runtime.NodeCounters) []int {
	return []int{c.Ticks, c.SelfLoops, c.Sends, c.Duplications, c.Receives, c.Replies, c.DeletedIDs, c.SendErrors}
}

// check asserts what must hold after every op, and the model's prediction in
// probe mode.
func (g *rig) check(drained bool) error {
	sub := g.sub
	if err := sub.CheckInvariants(); err != nil {
		return err
	}
	cnt, tr, pending := sub.Counters(), sub.Traffic(), sub.Pending()
	now, before := counterFields(cnt), counterFields(g.last)
	for i := range now {
		if now[i] < before[i] {
			return fmt.Errorf("counters went back from %+v to %+v", g.last, cnt)
		}
	}
	g.last, g.tr, g.views = cnt, tr, sub.Views()
	for u, v := range g.views {
		if (v == nil) != g.away[u] {
			return fmt.Errorf("Views()[%d] nil = %v with the node away = %v", u, v == nil, g.away[u])
		}
		for i := 0; v != nil && i < v.Size(); i++ {
			if id := v.Slot(i); id != peer.Nil && uint(id) >= uint(g.N) {
				return fmt.Errorf("node %d holds id %d, outside [0, %d)", u, id, g.N)
			}
		}
	}
	want := graph.FromViews(g.views)
	if err := sameGraph(sub.Snapshot(), want); err != nil {
		return err
	}
	if err := samePass(sub, g.views, want); err != nil {
		return err
	}
	if err := sameNodes(sub, g.views); err != nil {
		return err
	}
	// The by-condition fields are subsets: /metrics derives the base model's
	// drops as what is left of Losses, and a delayed message survived the
	// fault layer.
	if tr.PartitionDrops > tr.Losses || tr.Delayed > tr.Sends-tr.Losses {
		return fmt.Errorf("ledger %+v breaks down by condition to more than it counted", tr)
	}
	if drained && (pending != 0 || !tr.Conserved()) {
		return fmt.Errorf("after a drain: %d pending, ledger %+v", pending, tr)
	}
	if g.m != nil {
		return g.m.check(g.net, cnt, tr, pending)
	}
	// S&F edge bookkeeping is exact: a send above the floor takes two
	// entries, a receive adds two unless the ids are deleted (Lemma 6.6, dup
	// = loss + del, with the transient term). It holds only if the substrate
	// counts every event of every node, the departed included.
	if want := g.edges - 2*(cnt.Sends-cnt.Duplications) + 2*cnt.Receives - cnt.DeletedIDs; g.sfEdges && outdegrees(g.views) != want {
		return fmt.Errorf("%d edges, want %d from counters %+v", outdegrees(g.views), want, cnt)
	}
	return nil
}

// sameNodes holds EachNode to views, what Views() reported: it must visit
// exactly the live nodes, in ascending id order, each with a view equal to
// its copy and a core of that view's size.
func sameNodes(sub runtime.Substrate, views []*view.View) (err error) {
	var live, visited []peer.ID
	for u, v := range views {
		if v != nil {
			live = append(live, peer.ID(u))
		}
	}
	sub.EachNode(func(u peer.ID, lv *view.View, core protocol.StepCore) {
		visited = append(visited, u)
		switch {
		case err != nil || int(u) >= len(views) || views[u] == nil:
		case core.ViewSize() != lv.Size():
			err = fmt.Errorf("EachNode gives node %d a core of view size %d and a view of %d slots", u, core.ViewSize(), lv.Size())
		case !lv.Equal(views[u]):
			err = fmt.Errorf("EachNode gives node %d view %v, Views() %v", u, lv, views[u])
		}
	})
	if !slices.Equal(visited, live) {
		return fmt.Errorf("EachNode visited %v, Views() reports %v live", visited, live)
	}
	return err
}

// sameGraph holds the membership graph a substrate snapshots to the one its
// views induce: every out-list in slot order, every in-degree, and the number
// of components.
func sameGraph(got, want *graph.Graph) error {
	if got.N() != want.N() {
		return fmt.Errorf("Snapshot() has %d nodes, Views() %d", got.N(), want.N())
	}
	for u := peer.ID(0); int(u) < want.N(); u++ {
		if !slices.Equal(got.OutNeighbors(u), want.OutNeighbors(u)) || got.Indegree(u) != want.Indegree(u) {
			return fmt.Errorf("Snapshot() gives node %d out-list %v and in-degree %d, its view %v and %d", u, got.OutNeighbors(u), got.Indegree(u), want.OutNeighbors(u), want.Indegree(u))
		}
	}
	if a, b := got.ComponentCount(), want.ComponentCount(); a != b {
		return fmt.Errorf("Snapshot() has %d components, the views %d", a, b)
	}
	return nil
}

// samePass holds the in-place quality pass over sub to want, the graph of its
// views, under each definition: Universe to the whole graph, Live to the
// subgraph the live nodes induce, with the degrees summed in ascending id
// order bit for bit.
func samePass(sub runtime.Substrate, views []*view.View, want *graph.Graph) error {
	if sub.N() != len(views) {
		return fmt.Errorf("N() = %d, Views() has %d", sub.N(), len(views))
	}
	var all, live []peer.ID
	slots := 0
	for u, v := range views {
		all = append(all, peer.ID(u))
		if v != nil {
			live = append(live, peer.ID(u))
			slots += v.Size()
		}
	}
	p := graph.NewPass(len(views))
	ref := graph.Quality{
		Vertices: len(all), Edges: want.NumEdges(), Degrees: refDegrees(want, all), Slots: slots,
		SelfEdges: want.SelfEdges(), Duplicates: want.DuplicateEntries(), Stale: want.StaleEdges(live), Components: want.ComponentCount(),
	}
	if got := p.Universe(sub.EachNode); got != ref {
		return fmt.Errorf("Universe pass %+v, the views' graph %+v", got, ref)
	}
	ref.Vertices, ref.Degrees, ref.Components = len(live), refDegrees(want, live), want.InducedComponents(live)
	if got := p.Live(sub.EachNode); got != ref {
		return fmt.Errorf("Live pass %+v, the views' graph over the live nodes %+v", got, ref)
	}
	return nil
}

// refDegrees is the degree balance of the ids of g, summed in the order
// given, as experiments summed it off a graph snapshot.
func refDegrees(g *graph.Graph, ids []peer.ID) graph.Degrees {
	var out, in stats.Accumulator
	var d graph.Degrees
	for k, u := range ids {
		o, i := g.Outdegree(u), g.Indegree(u)
		out.Add(float64(o))
		in.Add(float64(i))
		if k == 0 {
			d.MinOut, d.MaxOut, d.MinIn, d.MaxIn = o, o, i, i
		}
		d.MinOut, d.MaxOut, d.MinIn, d.MaxIn = min(d.MinOut, o), max(d.MaxOut, o), min(d.MinIn, i), max(d.MaxIn, i)
	}
	d.MeanOut, d.VarOut, d.MeanIn, d.VarIn = out.Mean(), out.Variance(), in.Mean(), in.Variance()
	return d
}

// failure is the first assertion a schedule broke, and the rigs that broke it.
type failure struct {
	rigs []rigConfig
	err  error
}

// runSchedule builds a rig per configuration and applies s to all of them,
// op by op, checking each after every op; a panic fails like a broken
// assertion. The rigs come back closed, for the caller's end-of-run gates.
func runSchedule(cfgs []rigConfig, s schedule) (rigs []*rig, fail *failure) {
	at := 0
	defer func() {
		for _, g := range rigs {
			g.sub.Close()
		}
		if p := recover(); p != nil {
			fail = &failure{cfgs[at : at+1], fmt.Errorf("panic: %v", p)}
		}
	}()
	for ; at < len(cfgs); at++ {
		g, err := newRig(cfgs[at])
		if err != nil {
			return rigs, &failure{cfgs[at : at+1], err}
		}
		rigs = append(rigs, g)
	}
	for k, o := range s {
		for i, g := range rigs {
			at = i
			if err := g.apply(o); err != nil {
				return rigs, &failure{cfgs[i : i+1], fmt.Errorf("op %d %#v: %w", k, o, err)}
			}
			if i > 0 && g.twin && shardedFingerprint(g.sub) != shardedFingerprint(rigs[i-1].sub) {
				return rigs, &failure{cfgs[i-1 : i+1], fmt.Errorf("op %d %#v: the twins diverged", k, o)}
			}
		}
	}
	return rigs, nil
}

// shrink drops operations from s — halves, quarters, and so on, then single
// ops until none can go — keeping every cut that still fails on cfgs.
func shrink(cfgs []rigConfig, s schedule) schedule {
	for chunk := len(s) / 2; chunk > 0; {
		cut := false
		for i := 0; i+chunk <= len(s); {
			t := slices.Delete(slices.Clone(s), i, i+chunk)
			if _, fail := runSchedule(cfgs, t); fail != nil {
				s, cut = t, true
			} else {
				i += chunk
			}
		}
		if chunk > 1 {
			chunk /= 2
		} else if !cut {
			break
		}
	}
	return s
}

// mustRun runs s on cfgs and returns the rigs; on a failure it shrinks s
// against the rigs that failed and fails the test with the shrunk schedule.
func mustRun(t *testing.T, cfgs []rigConfig, s schedule) []*rig {
	t.Helper()
	rigs, fail := runSchedule(cfgs, s)
	if fail == nil {
		return rigs
	}
	min := shrink(fail.rigs, s)
	_, again := runSchedule(fail.rigs, min)
	t.Fatalf("%v: %v\nshrunk to %d ops, failing with %v:\n%#v", fail.rigs, fail.err, len(min), again.err, min)
	return nil
}

// probeNs are cluster sizes that put the liveness bitset's last word in every
// state: n = 63, 64, 65 (one bit short of a word, exactly one, one over) and
// 255, 300, 1000 (a partly used last word).
var probeNs = []int{63, 64, 65, 255, 300, 1000}

// shardedTwins is the sharded engine at c's geometry, at Workers 1 and 4.
func shardedTwins(c runtime.Config, probe bool) []rigConfig {
	c.Engine = runtime.EngineSharded
	one, four := c, c
	one.Workers, four.Workers = 1, 4
	return []rigConfig{{Config: one, probe: probe}, {Config: four, probe: probe, twin: true}}
}

// exercisesFaults reports whether a ledger took every path of the fault stack:
// a dead letter, a partition drop, a base-model loss and a delay.
func exercisesFaults(tr metrics.Traffic) bool {
	return tr.DeadLetters > 0 && tr.PartitionDrops > 0 && tr.Delayed > 0 && tr.Losses > tr.PartitionDrops
}

// TestSubstrateProbeModel is the harness in probe mode on all three engines,
// at every probe size, with ids 0, 62, 63, 64, n-2 and n-1 drawn half the time
// as churn victims and as destinations. On every engine the model must predict
// the ledger, the counters and every node's receive count exactly after every
// op: a message to an away node is one dead letter and no receive, at route
// time without a delay and at drain time with one, a rejoined node receives
// again, and a setter called between two ticks rules the next one.
func TestSubstrateProbeModel(t *testing.T) {
	for i, n := range probeNs {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			c := runtime.Config{N: n, Seed: int64(n)}
			seq, cluster := c, c
			seq.Engine, cluster.Engine = runtime.EngineSeq, runtime.EngineCluster
			cfgs := append([]rigConfig{{Config: seq, probe: true}, {Config: cluster, probe: true}}, shardedTwins(c, true)...)
			long := longDelay(i == 0)
			rigs := mustRun(t, cfgs, genSchedule(rng.New(int64(7*n)), n, 250, false, long))
			if tr := rigs[0].m.tr; !exercisesFaults(tr) {
				t.Fatalf("the schedule leaves a path of the fault stack unexercised: ledger %+v", tr)
			}
			checkMaxDelay(t, rigs[0].m, long)
		})
	}
}

// longDelay is the long delay of a test's schedules: for its first one the
// longest delay SetDelay accepts, whose drain walks every round of it, and
// 300 rounds for the others.
func longDelay(first bool) int {
	if first {
		return faults.MaxDelay
	}
	return 300
}

// checkMaxDelay fails the test when the schedule drew a delay of
// faults.MaxDelay and no message parked under it: then no drain walked it.
func checkMaxDelay(t *testing.T, m *probeModel, long int) {
	t.Helper()
	if long == faults.MaxDelay && m.longest != long {
		t.Fatalf("no message parked under the schedule's delay of %d rounds (longest %d)", long, m.longest)
	}
}

// TestShardedLivenessModel is the probe harness across the sharded engine's
// geometry: shard sizes 16, 64 and 256 put a shard's window of the node
// records, the slot slab and the liveness bitset at every alignment — several
// shards to a bitset word, exactly one word, and four words — with a short
// last shard at every probe size, and at n = 63/64/65/255 under size 256 a
// single partial one. Each schedule starts with no delay or a fixed one of two
// rounds, so the router's liveness reads are held to the model both at route
// time and at drain time from the first tick on, and must send to an away node.
func TestShardedLivenessModel(t *testing.T) {
	for i, n := range probeNs {
		for _, shardSize := range []int{16, 64, 256} {
			for _, delay := range []int{0, 2} {
				name := fmt.Sprintf("n=%d/delay=%d", n, delay)
				if shardSize != 16 {
					name += fmt.Sprintf("/shard=%d", shardSize)
				}
				t.Run(name, func(t *testing.T) {
					long := longDelay(i == 0 && shardSize == 16 && delay == 0)
					s := append(schedule{{kind: opDelay, d: delay}}, genSchedule(rng.New(int64(7*n+delay)), n, 200, false, long)...)
					rigs := mustRun(t, shardedTwins(runtime.Config{N: n, Seed: int64(n + delay), ShardSize: shardSize}, true), s)
					if tr := rigs[0].m.tr; tr.DeadLetters == 0 {
						t.Fatalf("no message was sent to an away node: ledger %+v", tr)
					}
					checkMaxDelay(t, rigs[0].m, long)
				})
			}
		}
	}
}

// An equivCase is one protocol at the parameters the pairwise gates were set
// for.
type equivCase struct {
	name           string
	rounds, degree int
	loss           float64
	newCore        protocol.CoreFactory
}

// protocolSchedule is a 40-op random schedule with a delay of long rounds
// followed by the run the gates compare: the faults cleared back to the case's
// loss rate, every away node rejoined, the delay queue drained, then rounds
// plain ticks and a drain.
func protocolSchedule(r *rng.RNG, n int, tc equivCase, long int) schedule {
	s := genSchedule(r, n, 40, true, long)
	away := make([]bool, n+1)
	tail := schedule{{kind: opHeal}, {kind: opRate, rate: tc.loss}, {kind: opDelay}}
	for _, o := range s {
		switch o.kind {
		case opRemove:
			away[o.u] = true
		case opAdd:
			away[o.u] = false
		}
	}
	for u, gone := range away[:n] {
		if gone {
			tail = append(tail, op{kind: opAdd, u: peer.ID(u)})
		}
	}
	tail = append(tail, op{kind: opDrain})
	for i := 0; i < tc.rounds; i++ {
		tail = append(tail, op{kind: opTick})
	}
	return append(append(s, tail...), op{kind: opDrain})
}

// overlayPool pools one substrate's final overlays over the seeds.
type overlayPool struct {
	inHist     []float64 // inHist[k]: nodes of in-degree k
	out, nodes int
	cnt        protocol.Counters
}

func (p *overlayPool) add(g *rig) {
	in := make([]int, len(g.views))
	for _, v := range g.views {
		for _, id := range v.IDs() {
			in[id]++
		}
	}
	for _, k := range in {
		for len(p.inHist) <= k {
			p.inHist = append(p.inHist, 0)
		}
		p.inHist[k]++
	}
	p.out += outdegrees(g.views)
	p.nodes += len(g.views)
	p.cnt.Add(g.last)
}

func (p *overlayPool) pmf() []float64 {
	pmf := slices.Clone(p.inHist)
	for k := range pmf {
		pmf[k] /= float64(p.nodes)
	}
	return pmf
}

// perSend returns count per message the initiate and receive steps emitted.
func (p *overlayPool) perSend(count int) float64 {
	return float64(count) / float64(p.cnt.Sends+p.cnt.Replies)
}

// TestSubstrateEquivalence is the harness in protocol mode, Proposition 5.2's
// check for every protocol: seq, cluster and sharded (at Workers 1 and 4,
// byte for byte) run the same random schedule from the same bootstrap
// topology, S&F's views held to the exact edge identity after every op, and
// then the same plain run. Pooled over four seeds, the final overlays must
// match pairwise: in-degree distributions within a Kolmogorov-Smirnov distance
// of 0.15, mean degrees within 10 % (every node is live at the end and every
// id names one, so the mean in- and outdegree are the same number), and per
// message the same share of receives, floor sends and deleted ids (for S&F the
// Lemma 6.6/6.7 quantities). The tail rates get a wider band than the
// receives: seq schedules with replacement, which widens the degree
// distribution and raises both tails.
func TestSubstrateEquivalence(t *testing.T) {
	const n = 60
	for k, tc := range []equivCase{
		{"sendforget", 150, 8, 0.05, func() (protocol.StepCore, error) { return sendforget.NewCore(12, 4) }},
		{"sfopt", 150, 8, 0.05, func() (protocol.StepCore, error) {
			return sfopt.NewCore(sfopt.Options{S: 12, DL: 4, ReplaceWhenFull: true, Undelete: true})
		}},
		{"shuffle", 80, 5, 0.02, func() (protocol.StepCore, error) { return shuffle.NewCore(10) }},
		{"flipper", 80, 5, 0.02, func() (protocol.StepCore, error) { return flipper.NewCore(10) }},
		{"pushpull", 100, 5, 0.05, func() (protocol.StepCore, error) { return pushpull.NewCore(10) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var pools [3]overlayPool // seq, cluster, sharded
			for i, seed := range []int64{11, 29, 47, 83} {
				var cfgs []rigConfig
				for i, c := range []runtime.Config{
					{Engine: runtime.EngineSeq, Seed: seed},
					{Engine: runtime.EngineCluster, Seed: rng.DeriveSeed(seed, 1)},
					{Engine: runtime.EngineSharded, Seed: rng.DeriveSeed(seed, 2), Workers: 1},
					{Engine: runtime.EngineSharded, Seed: rng.DeriveSeed(seed, 2), Workers: 4},
				} {
					c.N, c.NewCore, c.InitDegree, c.Loss, c.ShardSize = n, tc.newCore, tc.degree, tc.loss, 16
					cfgs = append(cfgs, rigConfig{Config: c, sfEdges: tc.name == "sendforget", twin: i == 3})
				}
				rigs := mustRun(t, cfgs, protocolSchedule(rng.New(seed), n, tc, longDelay(k == 0 && i == 0)))
				for i := range pools {
					pools[i].add(rigs[i])
				}
			}
			names := [3]string{"seq", "cluster", "sharded"}
			for a := 0; a < 3; a++ {
				for b := a + 1; b < 3; b++ {
					pa, pb, pair := &pools[a], &pools[b], names[a]+"/"+names[b]
					ks := stats.KSDistance(pa.pmf(), pb.pmf())
					outA, outB := float64(pa.out)/float64(pa.nodes), float64(pb.out)/float64(pb.nodes)
					t.Logf("%s: mean degree %.2f vs %.2f, KS=%.3f", pair, outA, outB, ks)
					if ks > 0.15 {
						t.Errorf("%s: in-degree KS distance %.3f exceeds 0.15", pair, ks)
					}
					if math.Abs(outA-outB) > 0.10*max(outA, outB, 1) {
						t.Errorf("%s: mean degree differs by more than 10%% (%.2f vs %.2f)", pair, outA, outB)
					}
					for _, rate := range []struct {
						what       string
						a, b, band float64
					}{
						{"receives/send", pa.perSend(pa.cnt.Receives), pb.perSend(pb.cnt.Receives), 0.01},
						{"duplications/send", pa.perSend(pa.cnt.Duplications), pb.perSend(pb.cnt.Duplications), 0.04},
						{"deleted ids/send", pa.perSend(pa.cnt.DeletedIDs), pb.perSend(pb.cnt.DeletedIDs), 0.04},
					} {
						t.Logf("%s: %s %.4f vs %.4f", pair, rate.what, rate.a, rate.b)
						if d := rate.a - rate.b; d > rate.band || d < -rate.band {
							t.Errorf("%s: %s differs: %.4f vs %.4f", pair, rate.what, rate.a, rate.b)
						}
					}
				}
			}
		})
	}
}

// The named scenarios: fixed schedules through the same harness. Each op is
// checked as in the random ones, and each test adds what its own scenario must
// show on the state where the run ended.

// ticks is k plain rounds.
func ticks(k int) schedule { return make(schedule, k) }

// TestSeqDeadLetters: node 0 leaves a lossless seq overlay, and the probe
// model counts every message sent to it as one dead letter and no receive.
func TestSeqDeadLetters(t *testing.T) {
	cfgs := []rigConfig{{Config: runtime.Config{Engine: runtime.EngineSeq, N: 10, Seed: 7}, probe: true}}
	if g := mustRun(t, cfgs, append(schedule{{kind: opRemove}}, ticks(200)...))[0]; g.tr.DeadLetters == 0 {
		t.Error("no dead letters recorded despite messages to the departed node")
	}
}

// delayedDelivery holds one engine to the probe model under a fixed two-round
// delay: every send of the first round parks and none is delivered, Pending
// counts them, and the drain after sixty more rounds conserves the ledger.
func delayedDelivery(t *testing.T, kind runtime.EngineKind) {
	cfgs := []rigConfig{{Config: runtime.Config{Engine: kind, N: 10, Seed: 21}, probe: true}}
	s := slices.Concat(schedule{{kind: opDelay, d: 2}}, ticks(61), schedule{{kind: opDrain}})
	if g := mustRun(t, cfgs, s)[0]; g.tr.Deliveries == 0 || g.tr.Delayed != g.tr.Sends {
		t.Errorf("ledger %+v: want every send parked and delivered", g.tr)
	}
}

func TestClusterDelayedDelivery(t *testing.T) { delayedDelivery(t, runtime.EngineCluster) }
func TestShardedDelayedDelivery(t *testing.T) { delayedDelivery(t, runtime.EngineSharded) }

// removeAddNode is one node's churn life cycle on one engine, S&F (s = 12,
// dL = 4) through the harness: a second RemoveNode and one of id n are
// ignored, a second AddNode and one of id n are refused, and the views are nil
// exactly for the away node and held to the edge identity after every op.
// While node 5 is away the messages sent to it dead-letter and its id decays
// from the live views (Lemma 6.10); once it rejoins, others hold it again and
// the overlay is connected. A run is seeded, so the rejoin run replays the
// leave run as its prefix.
func removeAddNode(t *testing.T, c runtime.Config) {
	c.NewCore = sfFactory(12, 4)
	cfgs, away := []rigConfig{{Config: c, sfEdges: true}}, peer.ID(c.N)
	leave := slices.Concat(schedule{{kind: opRemove, u: 5}, {kind: opRemove, u: 5}, {kind: opRemove, u: away}}, ticks(300))
	if k := graph.FromViews(mustRun(t, cfgs, leave)[0].views).Indegree(5); k > 2 {
		t.Errorf("departed id retains %d instances", k)
	}
	rejoin := schedule{{kind: opAdd, u: 5}, {kind: opAdd, u: 5}, {kind: opAdd, u: away}}
	g := mustRun(t, cfgs, slices.Concat(leave, rejoin, ticks(100), schedule{{kind: opDrain}}))[0]
	if og := graph.FromViews(g.views); og.Indegree(5) == 0 || og.ComponentCount() != 1 || g.tr.DeadLetters == 0 {
		t.Errorf("after the rejoin: %d instances of node 5, %d components, ledger %+v", og.Indegree(5), og.ComponentCount(), g.tr)
	}
}

func TestSeqChurn(t *testing.T) {
	removeAddNode(t, runtime.Config{Engine: runtime.EngineSeq, N: 20, InitDegree: 6, Seed: 6})
}

func TestClusterRemoveAddNode(t *testing.T) {
	removeAddNode(t, runtime.Config{Engine: runtime.EngineCluster, N: 30, Seed: 31})
}

func TestShardedRemoveAddNode(t *testing.T) {
	removeAddNode(t, runtime.Config{Engine: runtime.EngineSharded, N: 30, Seed: 5, ShardSize: 8})
}

// TestShardedRepliesUnderDelay is the case two alternating reply sets used to
// cover, held against the single one: under Delay{Fixed: 1, Jitter: 2} a
// shuffle or flipper request parks, is drained, and its reply — written during
// the drain's deliver phase — parks in turn and is drained rounds later; under
// a jitter-only delay some replies are instead delivered by the next
// generation of the same settle loop, while the deliver phase is again writing
// replies. Node 5 leaves halfway, so replies to it dead-letter. The twins must
// agree after every op, and every message must be accounted for.
func TestShardedRepliesUnderDelay(t *testing.T) {
	for _, p := range allProtocols() {
		if p.name != "shuffle" && p.name != "flipper" {
			continue
		}
		for _, delay := range []faults.Delay{{Fixed: 1, Jitter: 2}, {Jitter: 2}} {
			t.Run(fmt.Sprintf("%s/%+v", p.name, delay), func(t *testing.T) {
				c := runtime.Config{N: 600, NewCore: p.factory, Seed: 41, ShardSize: 32}
				s := slices.Concat(schedule{{kind: opRate, rate: 0.03}, {kind: opDelay, d: delay.Fixed, j: delay.Jitter}},
					ticks(61), schedule{{kind: opRemove, u: 5}}, ticks(59), schedule{{kind: opDrain}})
				g := mustRun(t, shardedTwins(c, false), s)[0]
				cnt, tr := g.last, g.tr
				if cnt.Replies == 0 || tr.Sends != cnt.Sends+cnt.Replies || cnt.Receives != tr.Deliveries {
					t.Errorf("counters %+v against ledger %+v", cnt, tr)
				}
				if delay.Fixed > 0 && tr.Delayed != tr.Sends-tr.Losses {
					t.Errorf("%d of %d surviving sends parked, want all (replies included)", tr.Delayed, tr.Sends-tr.Losses)
				}
			})
		}
	}
}

// TestShardedSettersTakeEffectNextTick pins when a reconfiguration of the
// fault stack reaches the shards: the engine reads the stack once per tick, at
// its start, so a setter called between two ticks rules the very next one —
// all of it, on every shard — and not the one after. The probe model applies
// each setter at once, so it predicts every tick's ledger exactly, at Workers
// 1 and 4. The last partition isolates node 63, which a quarter of all probes
// go to, for exactly one tick.
func TestShardedSettersTakeEffectNextTick(t *testing.T) {
	const n = 64
	tick := op{kind: opTick}
	s := schedule{
		tick, {kind: opRate, rate: 1}, tick, {kind: opRate}, tick, {kind: opDelay, d: 2}, tick, {kind: opDelay}, tick, tick,
		{kind: opPartition, u: n / 2}, tick, {kind: opHeal}, tick,
		{kind: opPartition, u: n - 1}, tick, {kind: opHeal}, tick, {kind: opRemove, u: n - 1}, tick, {kind: opDrain},
	}
	g := mustRun(t, shardedTwins(runtime.Config{N: n, Seed: 5, ShardSize: 16}, true), s)[0]
	if !exercisesFaults(g.tr) {
		t.Fatalf("a setter ruled on no message: ledger %+v", g.tr)
	}
}
