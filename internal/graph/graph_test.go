package graph

import (
	"testing"
	"testing/quick"

	"sendforget/internal/peer"
	"sendforget/internal/rng"
	"sendforget/internal/view"
)

func TestFromEdgesDegrees(t *testing.T) {
	// 0 -> 1, 0 -> 2, 2 -> 1, 1 -> 1 (self-edge), 0 -> 1 (parallel).
	g := FromEdges(3, [][2]peer.ID{{0, 1}, {0, 2}, {2, 1}, {1, 1}, {0, 1}})
	if g.N() != 3 {
		t.Fatalf("N = %d, want 3", g.N())
	}
	if g.NumEdges() != 5 {
		t.Fatalf("NumEdges = %d, want 5", g.NumEdges())
	}
	tests := []struct {
		u       peer.ID
		out, in int
		sum     int
	}{
		{0, 3, 0, 3},
		{1, 1, 4, 9},
		{2, 1, 1, 3},
	}
	for _, tt := range tests {
		if got := g.Outdegree(tt.u); got != tt.out {
			t.Errorf("Outdegree(%v) = %d, want %d", tt.u, got, tt.out)
		}
		if got := g.Indegree(tt.u); got != tt.in {
			t.Errorf("Indegree(%v) = %d, want %d", tt.u, got, tt.in)
		}
		if got := g.SumDegree(tt.u); got != tt.sum {
			t.Errorf("SumDegree(%v) = %d, want %d", tt.u, got, tt.sum)
		}
	}
	if got := g.SelfEdges(); got != 1 {
		t.Errorf("SelfEdges = %d, want 1", got)
	}
	if got := g.Multiplicity(0, 1); got != 2 {
		t.Errorf("Multiplicity(0,1) = %d, want 2", got)
	}
	if got := g.DuplicateEntries(); got != 1 {
		t.Errorf("DuplicateEntries = %d, want 1 (the parallel 0->1)", got)
	}
	if got := g.IDInstances(1); got != 4 {
		t.Errorf("IDInstances(1) = %d, want 4", got)
	}
}

func TestFromEdgesPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("FromEdges with out-of-range endpoint did not panic")
		}
	}()
	FromEdges(2, [][2]peer.ID{{0, 2}})
}

func TestFromViews(t *testing.T) {
	v0 := view.New(4)
	v0.Set(0, 1)
	v0.Set(1, 2)
	v1 := view.New(4)
	v1.Set(3, 2)
	v2 := view.New(4)
	g := FromViews([]*view.View{v0, v1, v2})
	if g.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d, want 3", g.NumEdges())
	}
	if g.Indegree(2) != 2 {
		t.Errorf("Indegree(2) = %d, want 2", g.Indegree(2))
	}
	if g.Outdegree(2) != 0 {
		t.Errorf("Outdegree(2) = %d, want 0", g.Outdegree(2))
	}
}

func TestFromViewsNilView(t *testing.T) {
	v0 := view.New(2)
	v0.Set(0, 1)
	g := FromViews([]*view.View{v0, nil})
	if g.Outdegree(1) != 0 {
		t.Errorf("departed node outdegree = %d, want 0", g.Outdegree(1))
	}
	if g.Indegree(1) != 1 {
		t.Errorf("departed node indegree = %d, want 1 (stale id)", g.Indegree(1))
	}
}

func TestInOutNeighbors(t *testing.T) {
	g := FromEdges(4, [][2]peer.ID{{0, 2}, {1, 2}, {2, 3}, {0, 2}})
	if g.Multiplicity(0, 2) != 2 || g.Multiplicity(1, 2) != 1 || g.Multiplicity(3, 2) != 0 {
		t.Errorf("multiplicities into n2 = %d %d %d, want 2 1 0", g.Multiplicity(0, 2), g.Multiplicity(1, 2), g.Multiplicity(3, 2))
	}
	out := g.OutNeighbors(0)
	if len(out) != 2 {
		t.Errorf("OutNeighbors(0) = %v, want two entries", out)
	}
	// Out-lists keep the order of the edge list, and no append through one
	// reaches the next node's.
	g = FromEdges(3, [][2]peer.ID{{1, 2}, {0, 2}, {1, 0}, {0, 1}})
	_ = append(g.OutNeighbors(0), 0)
	if a, b := g.OutNeighbors(0), g.OutNeighbors(1); len(a) != 2 || a[0] != 2 || a[1] != 1 || len(b) != 2 || b[0] != 2 || b[1] != 0 {
		t.Errorf("out-lists %v and %v, want [n2 n1] and [n2 n0]", a, b)
	}
}

// TestFromSlotsMatchesFromViews: a graph read off a flat slot array is the
// graph of the same windows as views — out-lists in slot order, in-degrees
// (an id outside the universe counts for none), departed nodes without
// out-edges.
func TestFromSlotsMatchesFromViews(t *testing.T) {
	const n, s = 70, 6
	r := rng.New(9)
	slots := make([]peer.ID, n*s)
	views := make([]*view.View, n)
	for u := range views {
		window := slots[u*s : (u+1)*s]
		for i := range window {
			window[i] = peer.ID(r.Intn(n+2)) - 1 // Nil, an id of the universe, or n
		}
		if r.Intn(4) > 0 {
			v := view.Wrap(window)
			views[u] = &v
		}
	}
	got, want := FromSlots(slots, s, func(u peer.ID) bool { return views[u] != nil }), FromViews(views)
	if got.N() != n || got.NumEdges() != want.NumEdges() {
		t.Fatalf("%d nodes and %d edges, want %d and %d", got.N(), got.NumEdges(), n, want.NumEdges())
	}
	for u := peer.ID(0); u < n; u++ {
		a, b := got.OutNeighbors(u), want.OutNeighbors(u)
		if len(a) != len(b) || got.Indegree(u) != want.Indegree(u) {
			t.Fatalf("node %d: out %v in %d, want out %v in %d", u, a, got.Indegree(u), b, want.Indegree(u))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("node %d: out %v, want %v", u, a, b)
			}
		}
	}
}

func TestConnectivity(t *testing.T) {
	tests := []struct {
		name  string
		n     int
		edges [][2]peer.ID
		comps int
		conn  bool
	}{
		{"empty graph", 0, nil, 0, true},
		{"single vertex no edges", 1, nil, 1, true},
		{"two isolated", 2, nil, 2, false},
		{"directed chain is weakly connected", 3, [][2]peer.ID{{0, 1}, {2, 1}}, 1, true},
		{"two components", 4, [][2]peer.ID{{0, 1}, {2, 3}}, 2, false},
		{"self edge only leaves others isolated", 3, [][2]peer.ID{{0, 0}}, 3, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			g := FromEdges(tt.n, tt.edges)
			if got := g.ComponentCount(); got != tt.comps {
				t.Errorf("ComponentCount = %d, want %d", got, tt.comps)
			}
			if got := g.WeaklyConnected(); got != tt.conn {
				t.Errorf("WeaklyConnected = %v, want %v", got, tt.conn)
			}
		})
	}
}

func TestQuickHandshake(t *testing.T) {
	// Property: sum of outdegrees == sum of indegrees == edge count, for
	// random graphs.
	f := func(seed int64, nRaw, mRaw uint8) bool {
		n := int(nRaw%20) + 1
		m := int(mRaw % 64)
		r := rng.New(seed)
		edges := make([][2]peer.ID, m)
		for i := range edges {
			edges[i] = [2]peer.ID{peer.ID(r.Intn(n)), peer.ID(r.Intn(n))}
		}
		g := FromEdges(n, edges)
		sumOut, sumIn := 0, 0
		for u := 0; u < n; u++ {
			sumOut += g.Outdegree(peer.ID(u))
			sumIn += g.Indegree(peer.ID(u))
		}
		return sumOut == m && sumIn == m && g.NumEdges() == m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickComponentsNeverExceedN(t *testing.T) {
	f := func(seed int64, nRaw, mRaw uint8) bool {
		n := int(nRaw%15) + 1
		m := int(mRaw % 40)
		r := rng.New(seed)
		edges := make([][2]peer.ID, m)
		for i := range edges {
			edges[i] = [2]peer.ID{peer.ID(r.Intn(n)), peer.ID(r.Intn(n))}
		}
		g := FromEdges(n, edges)
		c := g.ComponentCount()
		return c >= 1 && c <= n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInducedComponents(t *testing.T) {
	// 0 -> 1 -> 2, 3 isolated among members; edge to non-member 4 ignored.
	g := FromEdges(5, [][2]peer.ID{{0, 1}, {1, 2}, {3, 4}})
	if got := g.InducedComponents([]peer.ID{0, 1, 2, 3}); got != 2 {
		t.Errorf("InducedComponents = %d, want 2 ({0,1,2} and {3})", got)
	}
	if got := g.InducedComponents([]peer.ID{0, 1, 2}); got != 1 {
		t.Errorf("InducedComponents = %d, want 1", got)
	}
	if got := g.InducedComponents(nil); got != 0 {
		t.Errorf("InducedComponents(nil) = %d, want 0", got)
	}
	if got := g.InducedComponents([]peer.ID{3}); got != 1 {
		t.Errorf("single member = %d, want 1", got)
	}
}

func TestStaleEdges(t *testing.T) {
	g := FromEdges(5, [][2]peer.ID{{0, 1}, {0, 4}, {1, 4}, {1, 2}})
	// Members {0,1,2}: edges to 4 are stale.
	if got := g.StaleEdges([]peer.ID{0, 1, 2}); got != 2 {
		t.Errorf("StaleEdges = %d, want 2", got)
	}
	if got := g.StaleEdges([]peer.ID{0, 1, 2, 4}); got != 0 {
		t.Errorf("StaleEdges with all members = %d, want 0", got)
	}
	if got := g.StaleEdges(nil); got != 0 {
		t.Errorf("StaleEdges(nil) = %d, want 0", got)
	}
}

// TestCounter reads an overlay of eight ids in place: two disjoint rings
// 0→1→2→0 and 3→4→5→3, a live node 6 with an empty view, and node 7, which
// has departed but whose id lingers in the views of 0 and 4. The vertices are
// the seven live nodes and the components three; a graph over all eight ids
// joins the rings through 7 and counts two.
func TestCounter(t *testing.T) {
	outs := map[peer.ID][]peer.ID{0: {1, 7}, 1: {2}, 2: {0}, 3: {4}, 4: {5, 7}, 5: {3}, 6: nil}
	views := make([]*view.View, 8)
	live := []peer.ID{0, 1, 2, 3, 4, 5, 6}
	for _, u := range live {
		views[u] = view.New(4)
		for i, w := range outs[u] {
			views[u].Set(2*i+1, w) // leave empty slots between the entries
		}
	}
	c := NewCounter(len(views))
	for _, u := range live {
		c.Live(u)
	}
	for _, u := range live {
		c.Out(u, views[u])
	}
	got := c.Summary()
	if got.N() != 7 || got.NumEdges() != 8 || got.ComponentCount() != 3 {
		t.Errorf("Summary: N %d, NumEdges %d, ComponentCount %d; want 7, 8, 3", got.N(), got.NumEdges(), got.ComponentCount())
	}
	g := FromViews(views)
	if ic := g.InducedComponents(live); ic != got.ComponentCount() {
		t.Errorf("InducedComponents(live) = %d, the counter %d", ic, got.ComponentCount())
	}
	if se := g.StaleEdges(live); se != 2 {
		t.Errorf("StaleEdges(live) = %d, want 2", se)
	}
	if cc := g.ComponentCount(); cc != 2 {
		t.Errorf("ComponentCount over all eight ids = %d, want 2 (the rings meet at 7)", cc)
	}
}

// TestQuickInducedComponentsMatchesSearch holds the union-find to a
// breadth-first search over the undirected member-to-member edges of random
// graphs, with random member sets.
func TestQuickInducedComponentsMatchesSearch(t *testing.T) {
	f := func(seed int64, nRaw, mRaw uint8) bool {
		n := int(nRaw%15) + 1
		r := rng.New(seed)
		edges := make([][2]peer.ID, int(mRaw%40))
		for i := range edges {
			edges[i] = [2]peer.ID{peer.ID(r.Intn(n)), peer.ID(r.Intn(n))}
		}
		member := make([]bool, n)
		var members []peer.ID
		for u := range n {
			if r.Intn(4) > 0 {
				member[u] = true
				members = append(members, peer.ID(u))
			}
		}
		adj := make([][]int, n)
		for _, e := range edges {
			if member[e[0]] && member[e[1]] {
				adj[e[0]] = append(adj[e[0]], int(e[1]))
				adj[e[1]] = append(adj[e[1]], int(e[0]))
			}
		}
		comps, seen := 0, make([]bool, n)
		for _, s := range members {
			if seen[s] {
				continue
			}
			comps++
			seen[s] = true
			for queue := []int{int(s)}; len(queue) > 0; queue = queue[1:] {
				for _, w := range adj[queue[0]] {
					if !seen[w] {
						seen[w] = true
						queue = append(queue, w)
					}
				}
			}
		}
		return FromEdges(n, edges).InducedComponents(members) == comps
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
