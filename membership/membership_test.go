package membership

import (
	"math"
	gort "runtime"
	"testing"
	"time"
)

func TestThresholdsFacade(t *testing.T) {
	dl, s, err := Thresholds(30, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if dl != 18 || s < 40 || s > 44 {
		t.Errorf("Thresholds(30, 0.01) = (%d, %d)", dl, s)
	}
	if _, _, err := Thresholds(31, 0.01); err == nil {
		t.Error("accepted odd dHat")
	}
}

func TestConnectivityMinDLFacade(t *testing.T) {
	dl, err := ConnectivityMinDL(0.01, 0.01, 1e-30)
	if err != nil {
		t.Fatal(err)
	}
	if dl != 26 {
		t.Errorf("ConnectivityMinDL = %d, want 26 (paper example)", dl)
	}
}

func TestClusterLifecycle(t *testing.T) {
	c, err := NewCluster(ClusterConfig{N: 40, S: 12, DL: 4, Loss: 0.02, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	c.Gossip(150)
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if !st.WeaklyConnected || st.Components != 1 {
		t.Errorf("cluster not connected: %+v", st)
	}
	if st.EdgesPerNode < 4 || st.EdgesPerNode > 12 {
		t.Errorf("EdgesPerNode = %v, want mid-range", st.EdgesPerNode)
	}
	if st.MeanOutdegree <= 0 || st.MeanIndegree <= 0 {
		t.Errorf("degenerate stats: %+v", st)
	}
	sample := c.Sample(0)
	if len(sample) == 0 {
		t.Fatal("empty sample")
	}
	for _, id := range sample {
		if id < 0 || int(id) >= 40 {
			t.Errorf("sample contains invalid id %v", id)
		}
	}
}

func TestClusterStartStop(t *testing.T) {
	c, err := NewCluster(ClusterConfig{N: 10, S: 8, DL: 2, GossipPeriod: time.Millisecond, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	time.Sleep(50 * time.Millisecond)
	c.Stop()
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestClusterValidation(t *testing.T) {
	if _, err := NewCluster(ClusterConfig{N: 1, S: 8, DL: 2}); err == nil {
		t.Error("accepted n=1")
	}
	if _, err := NewCluster(ClusterConfig{N: 10, S: 7, DL: 2}); err == nil {
		t.Error("accepted odd s")
	}
}

func TestUDPNodePair(t *testing.T) {
	a, err := NewUDPNode(NodeConfig{
		ID: 0, S: 8, DL: 2,
		GossipPeriod: 2 * time.Millisecond,
		ListenAddr:   "127.0.0.1:0",
		Seeds:        []NodeID{1, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewUDPNode(NodeConfig{
		ID: 1, S: 8, DL: 2,
		GossipPeriod: 2 * time.Millisecond,
		ListenAddr:   "127.0.0.1:0",
		Seeds:        []NodeID{0, 0},
		Peers:        map[NodeID]string{0: a.Addr()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	// a learns b's address after the fact (bootstrap directories are
	// static in this test).
	a2, err := NewUDPNode(NodeConfig{
		ID: 2, S: 8, DL: 2,
		GossipPeriod: 2 * time.Millisecond,
		ListenAddr:   "127.0.0.1:0",
		Seeds:        []NodeID{0, 1},
		Peers:        map[NodeID]string{0: a.Addr(), 1: b.Addr()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a2.Close()
	a2.Start()
	b.Start()
	time.Sleep(100 * time.Millisecond)
	// b should have received gossip (its id was in seeds of a2 and it
	// gossips toward node 0 whose address it knows).
	if len(b.Sample())+len(a2.Sample()) == 0 {
		t.Error("no view content after UDP gossip")
	}
}

func TestUDPNodeValidation(t *testing.T) {
	if _, err := NewUDPNode(NodeConfig{ID: 0, S: 8, DL: 2, Seeds: []NodeID{1, 2}}); err == nil {
		t.Error("accepted empty listen address")
	}
	if _, err := NewUDPNode(NodeConfig{
		ID: 0, S: 8, DL: 2, ListenAddr: "127.0.0.1:0",
		Peers: map[NodeID]string{1: "b:ad:addr"},
		Seeds: []NodeID{1, 2},
	}); err == nil {
		t.Error("accepted bad peer address")
	}
	if _, err := NewUDPNode(NodeConfig{
		ID: 0, S: 8, DL: 2, ListenAddr: "127.0.0.1:0", Seeds: []NodeID{1},
	}); err == nil {
		t.Error("accepted too few seeds")
	}
}

func TestClusterChurnFacade(t *testing.T) {
	c, err := NewCluster(ClusterConfig{N: 30, S: 12, DL: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	c.Remove(4)
	c.Gossip(200)
	seeds := c.Sample(0)
	if len(seeds) < 2 {
		t.Fatalf("donor sample too small: %v", seeds)
	}
	if err := c.Add(4, seeds); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(4, seeds); err == nil {
		t.Error("double Add accepted")
	}
	c.Gossip(100)
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if !st.WeaklyConnected {
		t.Errorf("cluster fragmented after facade churn: %+v", st)
	}
}

// TestClusterRestart: a cluster started, stopped and started again gossips
// again; every node ticks on the second run, not only the delay queue.
func TestClusterRestart(t *testing.T) {
	c, err := NewCluster(ClusterConfig{N: 10, S: 8, DL: 2, GossipPeriod: time.Millisecond, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	ticksAbove := func(n int, run string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for c.inner.Counters().Ticks <= n {
			if time.Now().After(deadline) {
				t.Fatalf("no ticks on the %s run (stuck at %d)", run, n)
			}
			time.Sleep(time.Millisecond)
		}
	}
	c.Start()
	ticksAbove(0, "first")
	c.Stop()
	c.Start()
	ticksAbove(c.inner.Counters().Ticks, "second")
}

// TestClusterAddIdle: on a cluster only Gossip drives, a node that left and
// rejoined gossips in Gossip's rounds and nowhere else — no tick while the
// cluster sits idle, and no goroutine left behind.
func TestClusterAddIdle(t *testing.T) {
	base := gort.NumGoroutine()
	c, err := NewCluster(ClusterConfig{N: 30, S: 12, DL: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	c.Gossip(20)
	c.Remove(4)
	if err := c.Add(4, c.Sample(0)); err != nil {
		t.Fatal(err)
	}
	c.Gossip(1)
	ticks := c.inner.Counters().Ticks
	time.Sleep(100 * time.Millisecond)
	if got := c.inner.Counters().Ticks; got != ticks {
		t.Errorf("idle cluster ticked after a rejoin: %d -> %d", ticks, got)
	}
	if got := gort.NumGoroutine(); got > base {
		t.Errorf("%d goroutines running on an idle cluster, %d before it was built", got, base)
	}
}

func TestUDPAddressLearningEndToEnd(t *testing.T) {
	// a and b know each other statically; c bootstraps knowing only b.
	// Through gossip c must learn a's address (and vice versa) without any
	// static entry.
	mk := func(id NodeID, seeds []NodeID, peers map[NodeID]string) *Node {
		n, err := NewUDPNode(NodeConfig{
			ID: id, S: 8, DL: 2,
			GossipPeriod: 2 * time.Millisecond,
			ListenAddr:   "127.0.0.1:0",
			Seeds:        seeds,
			Peers:        peers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	a := mk(0, []NodeID{1, 1}, nil)
	defer a.Close()
	b := mk(1, []NodeID{0, 2}, map[NodeID]string{0: a.Addr()})
	defer b.Close()
	c := mk(2, []NodeID{1, 1}, map[NodeID]string{1: b.Addr()})
	defer c.Close()
	if err := a.ep.AddPeer(1, b.Addr()); err != nil {
		t.Fatal(err)
	}
	a.Start()
	b.Start()
	c.Start()
	deadline := time.After(5 * time.Second)
	for c.KnownPeers() < 2 || a.KnownPeers() < 2 {
		select {
		case <-deadline:
			t.Fatalf("directories did not self-populate: a=%d c=%d", a.KnownPeers(), c.KnownPeers())
		default:
			time.Sleep(5 * time.Millisecond)
		}
	}
}

func TestClusterSampleNonMember(t *testing.T) {
	c, err := NewCluster(ClusterConfig{N: 10, S: 8, DL: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []NodeID{-1, 10, 1 << 20} {
		if got := c.Sample(u); got != nil {
			t.Errorf("Sample(%v) = %v for an id outside [0, 10), want nil", u, got)
		}
	}
	c.Remove(4)
	if got := c.Sample(4); got != nil {
		t.Errorf("Sample(4) = %v after Remove(4), want nil", got)
	}
	if got := c.Sample(5); len(got) == 0 {
		t.Error("Sample(5) of a live member is empty")
	}
}

func TestClusterSmallN(t *testing.T) {
	for _, n := range []int{3, 4} {
		c, err := NewCluster(ClusterConfig{N: n, S: 8, DL: 2, Loss: 0.01, Seed: 4})
		if err != nil {
			t.Fatalf("N=%d: %v", n, err)
		}
		c.Gossip(50)
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("N=%d: %v", n, err)
		}
		for u := NodeID(0); int(u) < n; u++ {
			for _, id := range c.Sample(u) {
				if id < 0 || int(id) >= n {
					t.Errorf("N=%d: Sample(%v) holds id %v outside the cluster", n, u, id)
				}
			}
		}
	}
}

// TestStatsCountsCurrentMembers: a member that left is not a vertex of the
// membership graph. Once node 5's id has decayed from every view, the 199
// members are one component and the indegree variance is what it was before
// the leave. Read over all 200 ids, Stats counted 5 as a component of its own
// (2 components, not weakly connected) and its indegree 0 into the variance
// (11.57 against 5.32 before the leave).
func TestStatsCountsCurrentMembers(t *testing.T) {
	c, err := NewCluster(ClusterConfig{N: 200, S: 40, DL: 18, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	c.Gossip(300)
	before := c.Stats()
	c.Remove(5)
	c.Gossip(5000)
	st := c.Stats()
	if st.Components != 1 || !st.WeaklyConnected {
		t.Errorf("199 members read as %d components (weakly connected %v), want 1", st.Components, st.WeaklyConnected)
	}
	if st.IndegreeVariance > 1.5*before.IndegreeVariance {
		t.Errorf("indegree variance %.2f after the leave, %.2f before", st.IndegreeVariance, before.IndegreeVariance)
	}
	if want := st.MeanOutdegree; math.Abs(st.EdgesPerNode-want) > 1e-9 {
		t.Errorf("EdgesPerNode %.4f, the members' mean outdegree %.4f", st.EdgesPerNode, want)
	}
}

// TestSampleBytesIndependentOfN holds one Sample to the same bytes at
// n = 1,000 and 8,000: it reads the one member's view, where it once copied
// the cluster's whole node slice to find it. Each size keeps the least of
// five calls, so an allocation of the runtime's own between the two reads
// does not count. Both Samples, the cluster's and the UDP node's, allocate
// their result and nothing else, where each once cloned the view first.
func TestSampleBytesIndependentOfN(t *testing.T) {
	sampleBytes := func(n int) uint64 {
		c, err := NewCluster(ClusterConfig{N: n, S: 8, DL: 2, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		least := uint64(math.MaxUint64)
		for range 5 {
			var before, after gort.MemStats
			gort.ReadMemStats(&before)
			ids := c.Sample(7)
			gort.ReadMemStats(&after)
			if len(ids) == 0 {
				t.Fatalf("n=%d: Sample(7) of a live member is empty", n)
			}
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	small, large := sampleBytes(1000), sampleBytes(8000)
	t.Logf("one Sample allocates %d B at n = 1,000 and %d B at n = 8,000", small, large)
	if large != small {
		t.Errorf("one Sample allocates %d B at n = 8,000 against %d B at n = 1,000: it reads more than the member's view", large, small)
	}

	c, err := NewCluster(ClusterConfig{N: 1000, S: 8, DL: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() { c.Sample(7) }); allocs != 1 {
		t.Errorf("Cluster.Sample allocates %v objects, want 1 (its result)", allocs)
	}
	node, err := NewUDPNode(NodeConfig{ID: 0, S: 8, DL: 2, ListenAddr: "127.0.0.1:0", Seeds: []NodeID{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	if allocs := testing.AllocsPerRun(20, func() { node.Sample() }); allocs != 1 {
		t.Errorf("Node.Sample allocates %v objects, want 1 (its result)", allocs)
	}
}
