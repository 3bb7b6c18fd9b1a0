package runtime_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"sendforget/internal/faults"
	"sendforget/internal/peer"
	"sendforget/internal/protocol"
	"sendforget/internal/protocol/sendforget"
	"sendforget/internal/protocol/shuffle"
	"sendforget/internal/runtime"
	"sendforget/internal/transport"
)

// recorder is a Sender capturing messages.
type recorder struct {
	mu   sync.Mutex
	msgs []protocol.Message
	tos  []peer.ID
	err  error
}

func (r *recorder) Send(to peer.ID, msg protocol.Message) error {
	r.mu.Lock()
	defer r.mu.Unlock()
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
// reach Nodes, Network, Start and Stop, which Substrate does not carry.
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

func TestNodeStartStopIdempotent(t *testing.T) {
	rec := &recorder{}
	n, err := runtime.NewNode(runtime.NodeConfig{ID: 0, Core: sfCore(t, 6, 0), Period: time.Millisecond}, []peer.ID{1, 2}, rec)
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	n.Start()
	time.Sleep(20 * time.Millisecond)
	n.Stop()
	n.Stop()
	if n.Counters().Ticks == 0 {
		t.Error("no ticks after Start")
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

func TestClusterTickRounds(t *testing.T) {
	c, err := newCluster(runtime.Config{N: 40, NewCore: sfFactory(12, 4), Loss: 0.05, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !c.Snapshot().WeaklyConnected() {
		t.Fatal("bootstrap topology disconnected")
	}
	for round := 0; round < 200; round++ {
		c.TickRound()
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	g := c.Snapshot()
	if !g.WeaklyConnected() {
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
	// Real goroutines + timers: run briefly, then verify invariants. This
	// is the race-detector workout for the lock discipline.
	c, err := newCluster(runtime.Config{N: 20, NewCore: sfFactory(12, 4), Loss: 0.02, Period: time.Millisecond, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	time.Sleep(150 * time.Millisecond)
	c.Stop()
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if ticks := c.Counters().Ticks; ticks < 20 {
		t.Errorf("only %d ticks across the cluster", ticks)
	}
}

func TestClusterNodeDeparture(t *testing.T) {
	c, err := newCluster(runtime.Config{N: 30, NewCore: sfFactory(12, 4), Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	// Node 3 leaves: stops participating and drops off the network.
	c.Nodes()[3].Stop()
	c.Network().Register(3, nil)
	for round := 0; round < 400; round++ {
		for u, n := range c.Nodes() {
			if u != 3 {
				n.Tick()
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

func TestClusterRemoveAddNode(t *testing.T) {
	c, err := newCluster(runtime.Config{N: 30, NewCore: sfFactory(12, 4), Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	c.RemoveNode(5)
	c.RemoveNode(5)  // idempotent
	c.RemoveNode(99) // out of range: no-op
	if c.Nodes()[5] != nil {
		t.Fatal("node 5 still present after RemoveNode")
	}
	for round := 0; round < 300; round++ {
		c.TickRound()
	}
	// The departed id decays from live views.
	instances := 0
	for u, v := range c.Views() {
		if u == 5 || v == nil {
			continue
		}
		instances += v.Multiplicity(5)
	}
	if instances > 2 {
		t.Errorf("departed id retains %d instances", instances)
	}
	// Rejoin with live seeds.
	if err := c.AddNode(5, []peer.ID{0, 1, 2, 3}, false); err != nil {
		t.Fatal(err)
	}
	if err := c.AddNode(5, []peer.ID{0, 1}, false); err == nil {
		t.Error("double AddNode accepted")
	}
	if err := c.AddNode(99, []peer.ID{0, 1}, false); err == nil {
		t.Error("out-of-range AddNode accepted")
	}
	for round := 0; round < 100; round++ {
		c.TickRound()
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The rejoined node reintegrates: others hold its id again.
	instances = 0
	for u, v := range c.Views() {
		if u == 5 || v == nil {
			continue
		}
		instances += v.Multiplicity(5)
	}
	if instances == 0 {
		t.Error("rejoined node acquired no in-neighbors")
	}
	g := c.Snapshot()
	if !g.WeaklyConnected() {
		t.Errorf("cluster disconnected after churn: %d components", g.ComponentCount())
	}
}

func TestClusterAddNodeStarted(t *testing.T) {
	c, err := newCluster(runtime.Config{N: 10, NewCore: sfFactory(8, 2), Period: time.Millisecond, Seed: 32})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	c.RemoveNode(3)
	if err := c.AddNode(3, []peer.ID{0, 1}, true); err != nil {
		t.Fatal(err)
	}
	time.Sleep(40 * time.Millisecond)
	c.Stop()
	if c.Nodes()[3].Counters().Ticks == 0 {
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
			seeds := c.Nodes()[0].ViewSnapshot().IDs()
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

// TestClusterChurnWhileSnapshotting is the churn race workout: snapshot,
// tick, counter, and invariant readers run full-tilt while nodes are removed
// and re-added. Run under -race; before the cluster's node slice was guarded
// by a lock, this was a data race (RemoveNode/AddNode wrote c.nodes[u] while
// Views/TickRound/Counters/CheckInvariants iterated it).
func TestClusterChurnWhileSnapshotting(t *testing.T) {
	const n = 24
	c, err := newCluster(runtime.Config{N: n, NewCore: sfFactory(12, 4), Loss: 0.05, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	readers := []func(){
		func() { c.TickRound() },
		func() { c.Views() },
		func() { c.Counters() },
		func() {
			if err := c.CheckInvariants(); err != nil {
				t.Error(err)
			}
		},
		func() { c.Snapshot() },
		func() { c.Traffic() },
	}
	for _, fn := range readers {
		fn := fn
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					fn()
				}
			}
		}()
	}
	// Churner: repeatedly remove and re-add nodes 0..7 while readers run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 60; i++ {
			u := peer.ID(i % 8)
			c.RemoveNode(u)
			if err := c.AddNode(u, []peer.ID{peer.ID(8 + i%4), peer.ID(12 + i%4), 16, 17}, false); err != nil {
				t.Errorf("re-add %v: %v", u, err)
				return
			}
		}
	}()
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if c.Counters().Ticks == 0 {
		t.Error("no ticks happened during the churn workout")
	}
}

// TestClusterRejoinSeedStreams pins the splitmix seed derivation: a
// rejoining node must not reuse any node's initial RNG stream (the old
// additive Seed+u+7919 scheme collided with the initial seed of node
// u+7918), so two successive incarnations behave differently.
func TestClusterRejoinSeedStreams(t *testing.T) {
	c, err := newCluster(runtime.Config{N: 10, NewCore: sfFactory(8, 2), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	seeds := []peer.ID{0, 1, 2, 3}
	var ticks [2][]peer.ID
	for inc := 0; inc < 2; inc++ {
		c.RemoveNode(7)
		if err := c.AddNode(7, seeds, false); err != nil {
			t.Fatal(err)
		}
		// Drive the rejoined node alone and record its view trajectory:
		// distinct incarnations must draw distinct RNG streams.
		node := c.Nodes()[7]
		for i := 0; i < 12; i++ {
			node.Tick()
		}
		v := node.ViewSnapshot()
		ticks[inc] = v.IDs()
	}
	a, b := fmt.Sprint(ticks[0]), fmt.Sprint(ticks[1])
	if a == b {
		t.Errorf("two incarnations of node 7 produced identical view trajectories %s — seed streams collide", a)
	}
}

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

// TestClusterDelayedDelivery checks the delay queue path end to end in
// manual-tick mode: with a fixed 2-round delay, messages sit in the queue
// until TickRound advances the network clock past their due round.
func TestClusterDelayedDelivery(t *testing.T) {
	cond := faults.Lossless()
	if err := cond.SetDelay(faults.Delay{Fixed: 2}); err != nil {
		t.Fatal(err)
	}
	c, err := newCluster(runtime.Config{N: 10, NewCore: sfFactory(8, 2), Conditions: cond, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	c.TickRound()
	tr := c.Traffic()
	if tr.Deliveries != 0 || tr.Delayed != tr.Sends || tr.Sends == 0 {
		t.Fatalf("after one round, traffic = %+v: want all sends delayed, none delivered", tr)
	}
	if c.Network().Pending() != tr.Sends {
		t.Fatalf("pending %d != delayed sends %d", c.Network().Pending(), tr.Sends)
	}
	for round := 0; round < 60; round++ {
		c.TickRound()
	}
	for c.Network().Pending() > 0 {
		c.Network().Advance()
	}
	tr = c.Traffic()
	if tr.Sends != tr.Deliveries+tr.DeadLetters+tr.Losses {
		t.Errorf("traffic identity violated after drain: %+v", tr)
	}
	if tr.Deliveries == 0 {
		t.Error("no delayed deliveries happened")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestNodeSetPeriodLive(t *testing.T) {
	rec := &recorder{}
	// Start with a period far beyond the test horizon, then reload to a
	// fast one: ticks arriving at all proves the running loop picked the
	// change up.
	n, err := runtime.NewNode(runtime.NodeConfig{
		ID: 0, Core: sfCore(t, 8, 2), Period: time.Hour,
	}, []peer.ID{1, 2}, rec)
	if err != nil {
		t.Fatal(err)
	}
	if got := n.Period(); got != time.Hour {
		t.Errorf("Period = %v, want 1h", got)
	}
	if err := n.SetPeriod(0); err == nil {
		t.Error("accepted nonpositive period")
	}
	n.Start()
	defer n.Stop()
	if err := n.SetPeriod(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := n.Period(); got != time.Millisecond {
		t.Errorf("Period after reload = %v, want 1ms", got)
	}
	deadline := time.After(5 * time.Second)
	for n.Counters().Ticks == 0 {
		select {
		case <-deadline:
			t.Fatal("no tick after period reload")
		case <-time.After(5 * time.Millisecond):
		}
	}
	// A second reload while a reset may still be pending must not block.
	for i := 0; i < 100; i++ {
		if err := n.SetPeriod(time.Duration(i+1) * time.Millisecond); err != nil {
			t.Fatal(err)
		}
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
		return runtime.NodeConfig{ID: 0, Core: sfCore(t, 8, 2), Period: time.Hour}
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
