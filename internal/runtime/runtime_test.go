package runtime_test

import (
	"fmt"
	"math"
	goruntime "runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"sendforget/internal/driver"
	"sendforget/internal/faults"
	"sendforget/internal/graph"
	"sendforget/internal/peer"
	"sendforget/internal/protocol"
	"sendforget/internal/protocol/sendforget"
	"sendforget/internal/protocol/shuffle"
	"sendforget/internal/runtime"
	"sendforget/internal/trace"
	"sendforget/internal/transport"
	"sendforget/internal/view"
)

// recorder is a Sender capturing messages. The ids are lent for the call
// only (see runtime.Sender), so it keeps a copy of them.
type recorder struct {
	mu   sync.Mutex
	msgs []protocol.Message
	tos  []peer.ID
	err  error
}

func (r *recorder) Send(to peer.ID, msg protocol.Message) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	msg.IDs = slices.Clone(msg.IDs)
	r.msgs = append(r.msgs, msg)
	r.tos = append(r.tos, to)
	return r.err
}

// sfCore builds a fresh S&F step core or fails the test.
func sfCore(t *testing.T, s, dl int) *sendforget.Core {
	t.Helper()
	core, err := sendforget.NewCore(s, dl)
	if err != nil {
		t.Fatal(err)
	}
	return core
}

// sfFactory is the S&F core factory used by the cluster tests.
func sfFactory(s, dl int) protocol.CoreFactory {
	return func() (protocol.StepCore, error) { return sendforget.NewCore(s, dl) }
}

// newCluster builds the goroutine-per-node backend the only way a package
// outside internal/runtime can, and asserts the concrete type: these tests
// reach Node, Network, Start and Stop, which Substrate does not carry.
func newCluster(cfg runtime.Config) (*runtime.Cluster, error) {
	cfg.Engine = runtime.EngineCluster
	sub, err := runtime.New(cfg)
	if err != nil {
		return nil, err
	}
	return sub.(*runtime.Cluster), nil
}

// newSharded builds the sharded tick backend.
func newSharded(cfg runtime.Config) (runtime.Substrate, error) {
	cfg.Engine = runtime.EngineSharded
	return runtime.New(cfg)
}

func TestNodeConfigValidation(t *testing.T) {
	rec := &recorder{}
	seeds := []peer.ID{1, 2}
	if _, err := runtime.NewNode(runtime.NodeConfig{ID: 0}, seeds, rec); err == nil {
		t.Error("accepted nil core")
	}
	if _, err := runtime.NewNode(runtime.NodeConfig{ID: 0, Core: sfCore(t, 8, 0)}, seeds, nil); err == nil {
		t.Error("accepted nil sender")
	}
	if _, err := runtime.NewNode(runtime.NodeConfig{ID: 0, Core: sfCore(t, 8, 2)}, []peer.ID{1}, rec); err == nil {
		t.Error("accepted too few seeds")
	}
	if _, err := runtime.NewNode(runtime.NodeConfig{ID: 0, Core: sfCore(t, 8, 2)}, seeds, rec); err != nil {
		t.Errorf("rejected valid config: %v", err)
	}
}

func TestNodeTickSendsAndClears(t *testing.T) {
	rec := &recorder{}
	n, err := runtime.NewNode(runtime.NodeConfig{ID: 5, Core: sfCore(t, 6, 0)}, []peer.ID{1, 2, 3, 4}, rec)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200 && len(rec.msgs) == 0; i++ {
		n.Tick()
	}
	if len(rec.msgs) == 0 {
		t.Fatal("no message sent in 200 ticks")
	}
	msg := rec.msgs[0]
	if msg.From != 5 || msg.IDs[0] != 5 {
		t.Errorf("message = %+v, want From/first id = n5", msg)
	}
	if msg.Dup {
		t.Error("dup flagged with dL=0 and degree 4")
	}
	if got := n.ViewSnapshot().Outdegree(); got != 2 {
		t.Errorf("outdegree after send = %d, want 2", got)
	}
	c := n.Counters()
	if c.Sends != 1 || c.Ticks != c.Sends+c.SelfLoops {
		t.Errorf("counters = %+v", c)
	}
	if err := n.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestNodeHandleMessage(t *testing.T) {
	rec := &recorder{}
	n, err := runtime.NewNode(runtime.NodeConfig{ID: 0, Core: sfCore(t, 6, 0)}, []peer.ID{1, 2}, rec)
	if err != nil {
		t.Fatal(err)
	}
	n.HandleMessage(protocol.Message{Kind: protocol.KindGossip, From: 3, IDs: []peer.ID{3, 4}})
	v := n.ViewSnapshot()
	if !v.Contains(3) || !v.Contains(4) {
		t.Errorf("view %v missing delivered ids", v)
	}
	// Malformed messages are ignored by the S&F core.
	n.HandleMessage(protocol.Message{Kind: protocol.KindGossip, From: 3, IDs: []peer.ID{3}})
	n.HandleMessage(protocol.Message{Kind: protocol.KindRequest, From: 3, IDs: []peer.ID{3, 4}})
	if got := n.ViewSnapshot().Outdegree(); got != 4 {
		t.Errorf("outdegree after malformed messages = %d, want 4", got)
	}
	// Full view: both ids of the second message are deleted. The node
	// counts every delivered datagram; the core decides which are
	// protocol-meaningful.
	n.HandleMessage(protocol.Message{Kind: protocol.KindGossip, From: 5, IDs: []peer.ID{5, 1}})
	n.HandleMessage(protocol.Message{Kind: protocol.KindGossip, From: 6, IDs: []peer.ID{6, 1}})
	if c := n.Counters(); c.Receives != 5 || c.Replies != 0 || c.DeletedIDs != 2 {
		t.Errorf("node counters = %+v, want 5 receives, no replies, 2 deleted ids", c)
	}
}

func TestNodeRepliesOutsideLock(t *testing.T) {
	// A request/reply core (shuffle) on the runtime node: the reply must be
	// emitted through the sender and counted.
	rec := &recorder{}
	core, err := shuffle.NewCore(8)
	if err != nil {
		t.Fatal(err)
	}
	n, err := runtime.NewNode(runtime.NodeConfig{ID: 0, Core: core}, []peer.ID{1, 2, 3, 4}, rec)
	if err != nil {
		t.Fatal(err)
	}
	n.HandleMessage(protocol.Message{Kind: protocol.KindRequest, From: 7, IDs: []peer.ID{7, 9}})
	if c := n.Counters(); c.Replies != 1 {
		t.Fatalf("node counters = %+v, want 1 reply", c)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.msgs) != 1 || rec.msgs[0].Kind != protocol.KindReply || rec.tos[0] != 7 {
		t.Errorf("reply = %+v to %v, want KindReply to 7", rec.msgs, rec.tos)
	}
}

func TestNodeSendErrorCounted(t *testing.T) {
	rec := &recorder{err: fmt.Errorf("boom")}
	n, err := runtime.NewNode(runtime.NodeConfig{ID: 0, Core: sfCore(t, 6, 0)}, []peer.ID{1, 2, 3, 4}, rec)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200 && n.Counters().SendErrors == 0; i++ {
		n.Tick()
	}
	if n.Counters().SendErrors == 0 {
		t.Error("send errors not counted")
	}
}

func TestClusterValidation(t *testing.T) {
	if _, err := newCluster(runtime.Config{N: 1, NewCore: sfFactory(8, 0)}); err == nil {
		t.Error("accepted n=1")
	}
	if _, err := newCluster(runtime.Config{N: 4, NewCore: sfFactory(8, 0), InitDegree: 4}); err == nil {
		t.Error("accepted init degree >= n")
	}
	if _, err := newCluster(runtime.Config{N: 10, NewCore: sfFactory(8, 0), Loss: 1.5}); err == nil {
		t.Error("accepted loss > 1")
	}
	if _, err := newCluster(runtime.Config{N: 10}); err == nil {
		t.Error("accepted nil core factory")
	}
}

// TestEnginesRejectAnotherViewSize holds every engine to the one view size
// New probes: a factory of protocol.PerNode cores — the only kind an engine
// builds more than one of — whose later cores are larger is refused at the
// first join that gets one.
func TestEnginesRejectAnotherViewSize(t *testing.T) {
	for _, kind := range []runtime.EngineKind{runtime.EngineSeq, runtime.EngineCluster, runtime.EngineSharded} {
		calls := 0
		f := func() (protocol.StepCore, error) {
			if calls++; calls > 3 {
				return sendforget.NewTrackedCore(12, 0)
			}
			return sendforget.NewTrackedCore(8, 0)
		}
		sub, err := runtime.New(runtime.Config{Engine: kind, N: 10, NewCore: f, InitDegree: 4})
		if err == nil {
			sub.Close()
		}
		if err == nil || !strings.Contains(err.Error(), "core for node n2 has view size 12, the substrate expects 8") {
			t.Errorf("%s: err %v, want node 2's core refused", kind, err)
		}
	}
}

func TestClusterTickRounds(t *testing.T) {
	c, err := newCluster(runtime.Config{N: 40, NewCore: sfFactory(12, 4), Loss: 0.05, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if c.Snapshot().ComponentCount() != 1 {
		t.Fatal("bootstrap topology disconnected")
	}
	for round := 0; round < 200; round++ {
		c.TickRound()
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	g := c.Snapshot()
	if g.ComponentCount() != 1 {
		t.Errorf("cluster disconnected after 200 rounds: %d components", g.ComponentCount())
	}
	tr := c.Traffic()
	if tr.Sends == 0 || tr.Losses == 0 || tr.Deliveries == 0 {
		t.Errorf("traffic = %+v", tr)
	}
	if tr.LossRate() < 0.02 || tr.LossRate() > 0.09 {
		t.Errorf("empirical loss rate %v, want ~0.05", tr.LossRate())
	}
	nc := c.Counters()
	if nc.Ticks == 0 || nc.Sends != tr.Sends || nc.Receives != tr.Deliveries {
		t.Errorf("aggregate node counters %+v inconsistent with traffic %+v", nc, tr)
	}
}

func TestClusterConcurrent(t *testing.T) {
	// Real goroutines + timers, with churn while the slot loops run: run
	// briefly, then verify invariants. This is the race-detector workout
	// for the lock discipline.
	c, err := newCluster(runtime.Config{N: 20, NewCore: sfFactory(12, 4), Loss: 0.02, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	c.Start(time.Millisecond)
	deadline := time.Now().Add(150 * time.Millisecond)
	for i := 0; time.Now().Before(deadline); i++ {
		u := peer.ID(3 + i%4)
		c.RemoveNode(u)
		time.Sleep(2 * time.Millisecond)
		if err := c.AddNode(u, []peer.ID{0, 1, 2, 10}, false); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	c.Stop()
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if ticks := c.Counters().Ticks; ticks < 20 {
		t.Errorf("only %d ticks across the cluster", ticks)
	}
}

// TestNodeConcurrentTickAndReceive races Tick and HandleMessage on the same
// nodes of a shuffle cluster: four goroutines tick the nodes of one small
// cluster, so a node's initiate step runs while requests and replies from
// the other goroutines' sends arrive at it, and a reply to its own request
// comes back through the synchronous network while its send is still under
// way. Every step in flight must write into an outbox of its own and lend
// its ids only until its send returns: the race detector watches the
// outboxes, and the views and the traffic ledger must come out consistent.
// Every node runs the one shuffle core New probed, so the steps racing here
// also run on one core at once: a step that wrote to its core would race.
func TestNodeConcurrentTickAndReceive(t *testing.T) {
	const n, goroutines, ticks = 12, 4, 400
	c, err := newCluster(runtime.Config{
		N:       n,
		NewCore: func() (protocol.StepCore, error) { return shuffle.NewCore(6) },
		Loss:    0.05,
		Seed:    21,
	})
	if err != nil {
		t.Fatal(err)
	}
	var shared protocol.StepCore
	c.EachNode(func(u peer.ID, _ *view.View, core protocol.StepCore) {
		if shared == nil {
			shared = core
		} else if core != shared {
			t.Errorf("node %v runs a core of its own, want the one core every node shares", u)
		}
	})
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ticks {
				// Neighbouring goroutines tick the same node at once.
				c.Node(peer.ID((i + g/2) % n)).Tick()
			}
		}()
	}
	wg.Wait()
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	cnt, tr := c.Counters(), c.Traffic()
	if cnt.Ticks != goroutines*ticks || cnt.Replies == 0 {
		t.Errorf("counters %+v, want %d ticks and some replies", cnt, goroutines*ticks)
	}
	if !tr.Conserved() || tr.Sends != cnt.Sends+cnt.Replies || tr.Deliveries != cnt.Receives {
		t.Errorf("traffic %+v does not match the node counters %+v", tr, cnt)
	}
}

// TestClusterStartStopIdempotent: a second Start or Stop does nothing, and a
// stopped cluster starts again and gossips again.
func TestClusterStartStopIdempotent(t *testing.T) {
	c, err := newCluster(runtime.Config{N: 10, NewCore: sfFactory(8, 2), Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	waitTicks := func(above int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for c.Counters().Ticks <= above {
			if time.Now().After(deadline) {
				t.Fatalf("ticks stuck at %d", above)
			}
			time.Sleep(time.Millisecond)
		}
	}
	for run := 0; run < 2; run++ {
		c.Start(time.Millisecond)
		c.Start(time.Millisecond) // a second Start does nothing
		waitTicks(c.Counters().Ticks)
		c.Stop()
		c.Stop()
	}
}

func TestClusterNodeDeparture(t *testing.T) {
	c, err := newCluster(runtime.Config{N: 30, NewCore: sfFactory(12, 4), Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	// Node 3 leaves: nothing ticks it and it drops off the network.
	c.Network().Register(3, nil)
	for round := 0; round < 400; round++ {
		for u := range peer.ID(30) {
			if u != 3 {
				c.Node(u).Tick()
			}
		}
	}
	// The departed id decays from the live views (Lemma 6.10). Its own
	// view still lists peers but nobody routes to it.
	instances := 0
	for u, v := range c.Views() {
		if u == 3 {
			continue
		}
		instances += v.Multiplicity(3)
	}
	if instances > 3 {
		t.Errorf("departed id still has %d instances after 400 rounds", instances)
	}
}

// TestClusterPassBytesIndependentOfN holds two graph.Pass readings over the
// cluster engine to the same bytes at n = 1,000 and 8,000: EachNode reads
// the slots a block at a time, where it once copied the whole node slice per
// reading. Each size keeps the least of five reading pairs, so an allocation
// of the runtime's own between the two reads does not count.
func TestClusterPassBytesIndependentOfN(t *testing.T) {
	readBytes := func(n int) uint64 {
		c, err := newCluster(runtime.Config{N: n, NewCore: sfFactory(8, 2), Seed: 13})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.RemoveNode(5)
		nodes, p := graph.Nodes(c.EachNode), graph.NewPass(n)
		if q := p.Live(nodes); q.Vertices != n-1 {
			t.Fatalf("n=%d: a reading found %d live nodes, want %d", n, q.Vertices, n-1)
		}
		least := uint64(math.MaxUint64)
		for range 5 {
			var before, after goruntime.MemStats
			goruntime.ReadMemStats(&before)
			p.Live(nodes)
			p.Universe(nodes)
			goruntime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	small, large := readBytes(1000), readBytes(8000)
	t.Logf("two readings allocate %d B at n = 1,000 and %d B at n = 8,000", small, large)
	if large != small {
		t.Errorf("two readings allocate %d B at n = 8,000 against %d B at n = 1,000: EachNode copies per node", large, small)
	}
}

func TestNodesOverUDP(t *testing.T) {
	// End-to-end: 6 S&F nodes on localhost UDP, full mesh directory,
	// manual ticking (deterministic), real datagrams.
	const n = 6
	nodes := make([]*runtime.Node, n)
	eps := make([]*transport.Endpoint, n)
	for u := 0; u < n; u++ {
		u := u
		ep, err := transport.NewEndpoint("127.0.0.1:0", func(m protocol.Message) {
			nodes[u].HandleMessage(m)
		})
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
		eps[u] = ep
	}
	for u := 0; u < n; u++ {
		seeds := []peer.ID{peer.ID((u + 1) % n), peer.ID((u + 2) % n)}
		node, err := runtime.NewNode(runtime.NodeConfig{ID: peer.ID(u), Core: sfCore(t, 8, 2)}, seeds, eps[u])
		if err != nil {
			t.Fatal(err)
		}
		nodes[u] = node
		for v := 0; v < n; v++ {
			if v != u {
				if err := eps[u].AddPeer(peer.ID(v), eps[v].Addr().String()); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for round := 0; round < 50; round++ {
		for _, node := range nodes {
			node.Tick()
		}
		time.Sleep(2 * time.Millisecond) // let datagrams land
	}
	time.Sleep(50 * time.Millisecond)
	received := 0
	for _, node := range nodes {
		if err := node.CheckInvariants(); err != nil {
			t.Error(err)
		}
		received += node.Counters().Receives
	}
	if received == 0 {
		t.Fatal("no UDP gossip was received")
	}
}

func TestClusterAddNodeStarted(t *testing.T) {
	c, err := newCluster(runtime.Config{N: 10, NewCore: sfFactory(8, 2), Seed: 32})
	if err != nil {
		t.Fatal(err)
	}
	c.Start(time.Millisecond)
	c.RemoveNode(3)
	if err := c.AddNode(3, []peer.ID{0, 1}, true); err != nil {
		t.Fatal(err)
	}
	time.Sleep(40 * time.Millisecond)
	c.Stop()
	if c.Node(3).Counters().Ticks == 0 {
		t.Error("restarted node never ticked")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestClusterChurnUnderLoss is the churn-and-loss workout: nodes join and
// leave while the in-memory network drops a tenth of all messages, and the
// protocol invariant must hold at every round boundary (Observation 5.1 is
// loss- and churn-independent).
func TestClusterChurnUnderLoss(t *testing.T) {
	const n = 40
	c, err := newCluster(runtime.Config{N: n, NewCore: sfFactory(12, 4), Loss: 0.1, Seed: 51})
	if err != nil {
		t.Fatal(err)
	}
	departed := []peer.ID{7, 19, 33}
	for round := 0; round < 600; round++ {
		switch round {
		case 100:
			for _, u := range departed {
				c.RemoveNode(u)
			}
		case 300:
			// Rejoin node 7 seeded from a live node's view, per the paper's
			// join rule (copy at least max(2, dL) live ids).
			seeds := c.Node(0).ViewSnapshot().IDs()
			if err := c.AddNode(7, seeds, false); err != nil {
				t.Fatalf("round %d: rejoin failed with seeds %v: %v", round, seeds, err)
			}
		}
		c.TickRound()
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	// The permanently departed ids drained from live views...
	for _, u := range []peer.ID{19, 33} {
		instances := 0
		for w, v := range c.Views() {
			if peer.ID(w) == u || v == nil {
				continue
			}
			instances += v.Multiplicity(u)
		}
		if instances > 2 {
			t.Errorf("departed id %v retains %d instances after 500 rounds", u, instances)
		}
	}
	// ...the rejoined node reintegrated...
	instances := 0
	for w, v := range c.Views() {
		if w == 7 || v == nil {
			continue
		}
		instances += v.Multiplicity(7)
	}
	if instances == 0 {
		t.Error("rejoined node 7 acquired no in-neighbors")
	}
	// ...and the live overlay stayed usable despite 10% loss.
	if tr := c.Traffic(); tr.Losses == 0 || tr.LossRate() < 0.05 {
		t.Errorf("traffic %+v does not reflect the configured loss", tr)
	}
}

// churnWhileTicking is the churn race workout on the two engines that serve
// concurrent callers: ticks, churn, and every reader race from several
// goroutines (the race detector checks the serialization; the invariants check
// the protocol state). On the cluster the node slice used to be unguarded:
// RemoveNode/AddNode wrote c.nodes[u] while Views/TickRound/Counters/
// CheckInvariants iterated it. On the sharded engine the churned ids sit on
// both sides of every word boundary of the liveness bitset, whose words four
// 16-node shards share: its writers (RemoveNode, AddNode) run against a
// ticking pool that reads it in the initiate and deliver phases and — with the
// jittered delay — in the drain.
func churnWhileTicking(t *testing.T, kind runtime.EngineKind) {
	cond, err := faults.FromRate(0.02)
	if err != nil {
		t.Fatal(err)
	}
	if err := cond.SetDelay(faults.Delay{Jitter: 2}); err != nil {
		t.Fatal(err)
	}
	sub, err := runtime.New(runtime.Config{Engine: kind, N: 200, NewCore: sfFactory(12, 4), Conditions: cond, Seed: 9, ShardSize: 16, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	writers.Add(2)
	go func() {
		defer writers.Done()
		runtime.Run(sub, 60)
	}()
	go func() {
		defer writers.Done()
		churned := []peer.ID{0, 63, 64, 127, 128, 199, 10, 11}
		for i := 0; i < 40; i++ {
			u := churned[i%len(churned)]
			sub.RemoveNode(u)
			if err := sub.AddNode(u, []peer.ID{1, 2, 3, 4}, false); err != nil {
				t.Errorf("%s: rejoin %v: %v", kind, u, err)
				return
			}
		}
	}()
	for _, read := range []func(){
		func() { sub.Views() }, func() { sub.Snapshot() }, func() { sub.Counters() },
		func() { sub.Traffic() }, func() { sub.Pending() },
		func() {
			if err := sub.CheckInvariants(); err != nil {
				t.Errorf("%s: %v", kind, err)
			}
		},
	} {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					read()
				}
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	for u, v := range sub.Views() {
		if v == nil {
			t.Errorf("%s: node %d is away after every leaver rejoined", kind, u)
		}
	}
	sub.DrainDelayed()
	// Churn dead-letters in-flight messages but never loses track of them.
	if tr := sub.Traffic(); !tr.Conserved() || sub.Counters().Ticks == 0 {
		t.Errorf("%s: ledger %+v, counters %+v after the drain", kind, tr, sub.Counters())
	}
	sub.Close()
}

func TestClusterChurnWhileSnapshotting(t *testing.T) { churnWhileTicking(t, runtime.EngineCluster) }
func TestShardedChurnWhileTicking(t *testing.T)      { churnWhileTicking(t, runtime.EngineSharded) }

// rejoinSeedStreams pins the splitmix seed derivation on the two engines that
// give each node a stream of its own: a rejoining node must not reuse any
// node's RNG stream (the old additive Seed+u+7919 scheme collided with the
// initial seed of node u+7918), so two successive incarnations must behave
// differently. Every message is lost, so node 7's view moves by its own draws
// alone.
func rejoinSeedStreams(t *testing.T, kind runtime.EngineKind) {
	sub, err := runtime.New(runtime.Config{Engine: kind, N: 10, NewCore: sfFactory(8, 2), Loss: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var trajectories [2]string
	for inc := range trajectories {
		sub.RemoveNode(7)
		if err := sub.AddNode(7, []peer.ID{0, 1, 2, 3}, false); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 12; i++ {
			sub.TickRound()
			trajectories[inc] += fmt.Sprint(sub.Views()[7].IDs())
		}
	}
	if trajectories[0] == trajectories[1] {
		t.Errorf("%s: two incarnations of node 7 produced identical view trajectories %s — seed streams collide", kind, trajectories[0])
	}
	sub.Close()
}

func TestClusterRejoinSeedStreams(t *testing.T) { rejoinSeedStreams(t, runtime.EngineCluster) }
func TestShardedRejoinSeedStreams(t *testing.T) { rejoinSeedStreams(t, runtime.EngineSharded) }

// TestClusterPartitionHeal drives the fault layer through the cluster: a
// two-way partition must cut cross-group gossip (counted, not silently
// dropped) and disconnect the overlay; healing must let S&F reconnect it.
func TestClusterPartitionHeal(t *testing.T) {
	const n = 30
	c, err := newCluster(runtime.Config{N: n, NewCore: sfFactory(12, 4), Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	var a, b []peer.ID
	for u := 0; u < n; u++ {
		if u < n/2 {
			a = append(a, peer.ID(u))
		} else {
			b = append(b, peer.ID(u))
		}
	}
	for round := 0; round < 50; round++ {
		c.TickRound()
	}
	c.Conditions().Partition(a, b)
	for round := 0; round < 150; round++ {
		c.TickRound()
	}
	tr := c.Traffic()
	if tr.PartitionDrops == 0 {
		t.Error("no partition drops counted while partitioned")
	}
	if tr.PartitionDrops != tr.Losses {
		t.Errorf("losses %d != partition drops %d with lossless base", tr.Losses, tr.PartitionDrops)
	}
	g := c.Snapshot()
	if g.InducedComponents(a) > 1 || g.InducedComponents(b) > 1 {
		t.Error("a side of the partition fell apart internally")
	}
	dropsAtHeal := tr.PartitionDrops
	c.Conditions().Heal()
	for round := 0; round < 50; round++ {
		c.TickRound()
	}
	// Whether the overlay reconnects depends on how many cross-partition ids
	// survived the outage (S&F has no rejoin mechanism — the loss-stress
	// experiment measures that decay); what must hold is that the partition
	// stops dropping anything once healed.
	tr = c.Traffic()
	if tr.PartitionDrops != dropsAtHeal {
		t.Errorf("partition drops kept accruing after Heal: %d -> %d", dropsAtHeal, tr.PartitionDrops)
	}
	if tr.Sends != tr.Losses+tr.Deliveries+tr.DeadLetters {
		t.Errorf("traffic identity violated: %+v", tr)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSubstrateCountersAllEngines(t *testing.T) {
	for _, kind := range []runtime.EngineKind{runtime.EngineSeq, runtime.EngineCluster, runtime.EngineSharded} {
		sub, err := runtime.New(runtime.Config{
			Engine: kind,
			N:      16,
			NewCore: func() (protocol.StepCore, error) {
				return sendforget.NewCore(8, 2)
			},
			Seed: 7,
		})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		for i := 0; i < 10; i++ {
			sub.TickRound()
		}
		sub.DrainDelayed()
		c := sub.Counters()
		if c.Ticks == 0 || c.Sends == 0 {
			t.Errorf("%s: counters = %+v, want nonzero ticks and sends", kind, c)
		}
		if c.Ticks != c.Sends+c.SelfLoops {
			t.Errorf("%s: ticks %d != sends %d + selfloops %d", kind, c.Ticks, c.Sends, c.SelfLoops)
		}
		// S&F is fire-and-forget: the node ledger's send count is the
		// transport ledger's, and every receive is a delivery.
		tr := sub.Traffic()
		if c.Sends != tr.Sends {
			t.Errorf("%s: node sends %d != traffic sends %d", kind, c.Sends, tr.Sends)
		}
		if c.Receives != tr.Deliveries {
			t.Errorf("%s: node receives %d != deliveries %d", kind, c.Receives, tr.Deliveries)
		}
		sub.Close()
	}
}

// A seed id outside [0, N) must not enter a view: on the sharded engine the
// first message routed to it indexes past the liveness bitset, and on the
// other two it is a dead letter every round from then on. All three engines
// refuse the join and keep their state.
func TestAddNodeRejectsSeedsOutsideUniverse(t *testing.T) {
	for _, kind := range []runtime.EngineKind{runtime.EngineSeq, runtime.EngineCluster, runtime.EngineSharded} {
		sub, err := runtime.New(runtime.Config{Engine: kind, N: 128, NewCore: sfFactory(8, 2), Seed: 3})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		sub.RemoveNode(5)
		for _, seeds := range [][]peer.ID{
			{1 << 20, 1, 2, 3},
			{1, 2, 128, 3},
			{1, 2, 3, -7},
			{peer.Nil, 1, 2, 3},
		} {
			err := sub.AddNode(5, seeds, false)
			if err == nil || !strings.Contains(err.Error(), "outside cluster universe [0, 128)") {
				t.Errorf("%s: AddNode(5, %v) = %v, want a seed-outside-universe error", kind, seeds, err)
			}
		}
		if sub.Views()[5] != nil {
			t.Errorf("%s: a rejected join left node 5 active", kind)
		}
		for i := 0; i < 5; i++ {
			sub.TickRound()
		}
		if err := sub.AddNode(5, []peer.ID{1, 2, 3, 127}, false); err != nil {
			t.Errorf("%s: join with in-range seeds after the rejected ones: %v", kind, err)
		}
		sub.TickRound()
		if err := sub.CheckInvariants(); err != nil {
			t.Errorf("%s: %v", kind, err)
		}
		sub.Close()
	}
}

// TestNewUDPNodeBringUp: the shared bring-up hands back a node its endpoint
// already dispatches to, and every failure after the bind gives the socket
// back — the next bring-up binds the same port.
func TestNewUDPNodeBringUp(t *testing.T) {
	cfg := func() runtime.NodeConfig {
		return runtime.NodeConfig{ID: 0, Core: sfCore(t, 8, 2)}
	}
	n, ep, err := runtime.NewUDPNode(cfg(), []peer.ID{1, 2}, "127.0.0.1:0", "", func(ep *transport.Endpoint) error {
		return ep.AddPeer(1, "127.0.0.1:19990")
	})
	if err != nil {
		t.Fatal(err)
	}
	addr := ep.Addr().String()
	if ep.KnownPeers() != 1 || n.ViewSnapshot().Outdegree() != 2 {
		t.Errorf("known peers = %d, outdegree = %d, want 1 and 2", ep.KnownPeers(), n.ViewSnapshot().Outdegree())
	}
	if err := ep.Close(); err != nil {
		t.Fatal(err)
	}
	for name, try := range map[string]func() error{
		"bad advertise": func() error {
			_, _, err := runtime.NewUDPNode(cfg(), []peer.ID{1, 2}, addr, "no-port", nil)
			return err
		},
		"bad peer": func() error {
			_, _, err := runtime.NewUDPNode(cfg(), []peer.ID{1, 2}, addr, "", func(ep *transport.Endpoint) error {
				return ep.AddPeer(1, "bad::addr::x")
			})
			return err
		},
		"too few seeds": func() error {
			_, _, err := runtime.NewUDPNode(cfg(), []peer.ID{1}, addr, "", nil)
			return err
		},
	} {
		if err := try(); err == nil || strings.Contains(err.Error(), "listen") {
			t.Errorf("%s: err = %v, want a failure past the bind (an earlier failure left the socket open)", name, err)
		}
	}
}

// TestUDPNodeReplay runs twelve S&F nodes (s = 16, dL = 6) on real sockets,
// each on its own loopback endpoint with every node's address in its
// directory, its own included: a self-addressed datagram is otherwise
// unroutable. The nodes are ticked by hand in id order, and each round ends
// at a barrier: every datagram sent has been delivered, and every delivered
// one received by its node. After every round each node's view must equal the
// replay of its step log, each logged step beginning at the RNG state the
// node's previous step left. Delivery order is the network's, so the run is
// not reproducible; the replay is exact for whatever order it took.
func TestUDPNodeReplay(t *testing.T) {
	const n, rounds = 12, 150
	rec := trace.NewRecorder(n)
	newCore := rec.Wrap(sfFactory(16, 6))
	nodes := make([]*runtime.Node, n)
	eps := make([]*transport.Endpoint, n)
	for u := range nodes {
		core, err := newCore()
		if err != nil {
			t.Fatal(err)
		}
		seeds := make([]peer.ID, 8)
		driver.Circulant(peer.ID(u), n, seeds)
		if nodes[u], eps[u], err = runtime.NewUDPNode(runtime.NodeConfig{ID: peer.ID(u), Core: core}, seeds, "127.0.0.1:0", "", nil); err != nil {
			t.Fatal(err)
		}
		defer eps[u].Close()
	}
	for _, ep := range eps {
		for v, to := range eps {
			if err := ep.AddPeer(peer.ID(v), to.Addr().String()); err != nil {
				t.Fatal(err)
			}
		}
	}
	replays := make([]trace.Replay, n)
	for round := 1; round <= rounds; round++ {
		for _, nd := range nodes {
			nd.Tick()
		}
		var sent, delivered, received int
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(100 * time.Microsecond) {
			sent, delivered, received = 0, 0, 0
			for u, ep := range eps {
				c := ep.Counters()
				sent, delivered, received = sent+c.Sent, delivered+c.Delivered, received+nodes[u].Counters().Receives
			}
			if sent == delivered && delivered == received {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("round %d: %d datagrams sent, %d delivered, %d received after 5 s", round, sent, delivered, received)
			}
		}
		for u, nd := range nodes {
			p := &replays[u]
			if err := p.Run(sfFactory(16, 6), rec.Log(peer.ID(u))); err != nil {
				t.Fatalf("round %d, node %d: %v", round, u, err)
			}
			if lv := nd.ViewSnapshot(); !p.View.Equal(lv) || p.Jumps != 0 {
				t.Fatalf("round %d, node %d: replay %v with %d RNG jumps, live view %v", round, u, p.View, p.Jumps, lv)
			}
		}
		if round == rounds && delivered < rounds*n/4 {
			t.Errorf("%d datagrams delivered in %d rounds of %d nodes", delivered, rounds, n)
		}
	}
}

// TestTinyOverlaysAllProtocols builds every protocol at n = 2 and n = 3 on
// every engine with the default bootstrap degree. At n = 2 no even degree
// lies below n, and the error must say that the default is what failed; at
// n = 3 the default degree 2 works for every protocol but S&F at dL = 6,
// whose SeedView names the seed count it needs.
func TestTinyOverlaysAllProtocols(t *testing.T) {
	for _, p := range allProtocols() {
		for _, n := range []int{2, 3} {
			want := ""
			switch {
			case n == 2:
				want = "default init degree has no even value below n=2; set InitDegree"
			case p.name == "sf":
				want = "dL=6"
			}
			for _, kind := range []runtime.EngineKind{runtime.EngineSeq, runtime.EngineCluster, runtime.EngineSharded} {
				sub, err := runtime.New(runtime.Config{Engine: kind, N: n, NewCore: p.factory, Seed: 1})
				if want != "" {
					if err == nil || !strings.Contains(err.Error(), want) {
						t.Errorf("%s n=%d %s: err %v, want one containing %q", p.name, n, kind, err, want)
					}
					if err == nil {
						sub.Close()
					}
					continue
				}
				if err != nil {
					t.Errorf("%s n=%d %s: %v", p.name, n, kind, err)
					continue
				}
				runtime.Run(sub, 5)
				if err := sub.CheckInvariants(); err != nil {
					t.Errorf("%s n=%d %s: %v", p.name, n, kind, err)
				}
				sub.Close()
			}
		}
	}
}
