package mgmt

import (
	gort "runtime"
	"runtime/debug"
	"slices"
	"testing"

	"sendforget/internal/peer"
	"sendforget/internal/protocol"
	"sendforget/internal/protocol/sendforget"
	"sendforget/internal/runtime"
)

var engines = []runtime.EngineKind{runtime.EngineSeq, runtime.EngineCluster, runtime.EngineSharded}

// newSFLocal builds a Local over an S&F overlay of n nodes with views of s
// slots, deletion threshold dl and uniform loss, on the given engine.
func newSFLocal(t testing.TB, kind runtime.EngineKind, n, s, dl int, loss float64, seed int64) (*Local, runtime.Substrate) {
	t.Helper()
	sub, err := runtime.New(runtime.Config{
		Engine: kind, N: n, Loss: loss, Seed: seed,
		NewCore: func() (protocol.StepCore, error) { return sendforget.NewCore(s, dl) },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sub.Close)
	backend, err := NewLocal(LocalOptions{
		Sub: sub, Protocol: "sf", Engine: string(kind), N: n, S: s, DL: dl, Seed: seed, Loss: loss,
	})
	if err != nil {
		t.Fatal(err)
	}
	return backend, sub
}

// liveIDs lists the live nodes of sub in id order.
func liveIDs(sub runtime.Substrate) []peer.ID {
	var live []peer.ID
	for u, v := range sub.Views() {
		if v != nil {
			live = append(live, peer.ID(u))
		}
	}
	return live
}

// TestSnapshotCountsLiveNodes: once node 5 has left and its id has decayed
// from every view, the 199 live nodes are one component, and the report says
// so. A report over all 200 ids counted 5 as a component of its own and
// divided the edges by 200.
func TestSnapshotCountsLiveNodes(t *testing.T) {
	for _, kind := range engines {
		t.Run(string(kind), func(t *testing.T) {
			backend, sub := newSFLocal(t, kind, 200, 12, 4, 0.01, 3)
			if err := backend.Leave(5); err != nil {
				t.Fatal(err)
			}
			for r := 0; sub.Snapshot().Indegree(5) > 0; r++ {
				if r == 3000 {
					t.Fatalf("node 5's id still in %d views after %d rounds", sub.Snapshot().Indegree(5), r)
				}
				backend.Tick()
			}
			if live := sub.Snapshot().InducedComponents(liveIDs(sub)); live != 1 {
				t.Fatalf("the live nodes form %d components, want 1", live)
			}
			got := backend.Snapshot()
			if got.Vertices != 199 || got.Components != 1 {
				t.Errorf("report: %d nodes in %d components, want 199 in 1", got.Vertices, got.Components)
			}
		})
	}
}

// TestSnapshotMatchesGraph holds the in-place report to the graph the
// substrate builds: with every node live, to its N, NumEdges and
// ComponentCount; after departures, to the live count, NumEdges, the
// components induced on the live nodes and the entries naming departed ones. The departures are node 0's out- and
// in-neighbours, so 0 is left a live node of its own, with only stale ids in
// its view, and the live nodes form at least two components.
func TestSnapshotMatchesGraph(t *testing.T) {
	for _, kind := range engines {
		t.Run(string(kind), func(t *testing.T) {
			backend, sub := newSFLocal(t, kind, 300, 12, 4, 0.05, 9)
			for range 30 {
				backend.Tick()
			}
			g, got := sub.Snapshot(), backend.Snapshot()
			if got.Vertices != g.N() || got.Edges != g.NumEdges() || got.Components != g.ComponentCount() {
				t.Errorf("no departures: report %d nodes, %d edges, %d components; graph %d, %d, %d",
					got.Vertices, got.Edges, got.Components, g.N(), g.NumEdges(), g.ComponentCount())
			}
			leave := map[peer.ID]bool{}
			for _, w := range g.OutNeighbors(0) {
				leave[w] = true
			}
			for _, u := range liveIDs(sub) {
				if slices.Contains(g.OutNeighbors(u), 0) {
					leave[u] = true
				}
			}
			delete(leave, 0)
			for u := range leave {
				if err := backend.Leave(int(u)); err != nil {
					t.Fatal(err)
				}
			}
			for r := range 4 {
				g, got = sub.Snapshot(), backend.Snapshot()
				live := liveIDs(sub)
				want := g.InducedComponents(live)
				if r == 0 && want < 2 {
					t.Fatalf("node 0 is not cut off: the live nodes form %d components", want)
				}
				if got.Vertices != len(live) || got.Edges != g.NumEdges() || got.Components != want || got.Stale != g.StaleEdges(live) {
					t.Errorf("round %d after %d departures: report %d nodes, %d edges, %d components, %d stale; want %d, %d, %d, %d",
						r, len(leave), got.Vertices, got.Edges, got.Components, got.Stale, len(live), g.NumEdges(), want, g.StaleEdges(live))
				}
				backend.Tick()
			}
		})
	}
}

// TestSnapshotAllocs bounds the report's memory on the sharded engine: the
// same number of allocations at n = 2000 and n = 4000, and at most 1 KiB per
// call after the first, none of it per node, because the backend keeps the
// graph.Pass its first report built. A report built on a copy of the graph
// took 41 bytes per node here,
// at s = 12, and one that allocated its union-find per call 4. The collector
// is off while it counts, so no GC cycle's own allocations land in one size's
// runs.
func TestSnapshotAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const calls = 10
	measure := func(n int) (allocs float64, bytes uint64) {
		backend, _ := newSFLocal(t, runtime.EngineSharded, n, 12, 4, 0.01, 6)
		if err := backend.Leave(17); err != nil {
			t.Fatal(err)
		}
		backend.Tick()
		_ = backend.Snapshot()
		var before, after gort.MemStats
		gort.ReadMemStats(&before)
		for range calls {
			_ = backend.Snapshot()
		}
		gort.ReadMemStats(&after)
		return testing.AllocsPerRun(calls, func() { _ = backend.Snapshot() }), (after.TotalAlloc - before.TotalAlloc) / calls
	}
	small, smallBytes := measure(2000)
	large, largeBytes := measure(4000)
	if small != large {
		t.Errorf("Snapshot() allocates %.1f times at n=2000 and %.1f at n=4000", small, large)
	}
	for _, c := range []struct {
		n     int
		bytes uint64
	}{{2000, smallBytes}, {4000, largeBytes}} {
		t.Logf("n=%d: %d B per call", c.n, c.bytes)
		if limit := uint64(1024); c.bytes > limit {
			t.Errorf("Snapshot() allocates %d B per call at n=%d, want at most %d", c.bytes, c.n, limit)
		}
	}
}

// TestNewLocalBytesDoNotGrowWithN: NewLocal allocates the same bytes, to
// within 1 KiB of other goroutines' noise, for a universe of 8 ids and of
// 100,000. The Pass that reads overlay quality takes 16 bytes an id (1.6 MB
// here), and only Snapshot reads it, so the first Snapshot builds it; a
// daemon that never reports holds none.
func TestNewLocalBytesDoNotGrowWithN(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	_, sub := newSFLocal(t, runtime.EngineSeq, 8, 6, 0, 0, 1)
	bytes := func(n int) uint64 {
		var before, after gort.MemStats
		gort.ReadMemStats(&before)
		if _, err := NewLocal(LocalOptions{Sub: sub, N: n}); err != nil {
			t.Fatal(err)
		}
		gort.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	if small, large := bytes(8), bytes(100_000); large > small+1024 {
		t.Errorf("NewLocal allocates %d B at n = 8 and %d B at n = 100000", small, large)
	}
}
