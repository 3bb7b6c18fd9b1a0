package graph

import (
	"math"
	goruntime "runtime"
	"slices"
	"testing"
	"testing/quick"

	"sendforget/internal/peer"
	"sendforget/internal/protocol"
	"sendforget/internal/rng"
	"sendforget/internal/stats"
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
	if got := g.DuplicateEntries(); got != 1 {
		t.Errorf("DuplicateEntries = %d, want 1 (the parallel 0->1)", got)
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
	if a, b, c := g.OutNeighbors(0), g.OutNeighbors(1), g.OutNeighbors(3); !slices.Equal(a, []peer.ID{2, 2}) || !slices.Equal(b, []peer.ID{2}) || len(c) != 0 {
		t.Errorf("out-lists of n0, n1, n3 = %v %v %v, want [n2 n2] [n2] []", a, b, c)
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
			if got := FromEdges(tt.n, tt.edges).ComponentCount(); got != tt.comps {
				t.Errorf("ComponentCount = %d, want %d", got, tt.comps)
			}
			q := NewPass(tt.n).Universe(nodesOf(viewsOf(tt.n, tt.edges)))
			if q.Components != tt.comps || q.Connected() != tt.conn {
				t.Errorf("Pass: %d components, connected %v; want %d, %v", q.Components, q.Connected(), tt.comps, tt.conn)
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
		r := rng.New(rng.Seed(seed))
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
		r := rng.New(rng.Seed(seed))
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

// viewsOf returns the views of n live nodes that hold edges: node u's out-list
// in edge order, in a view one slot larger than it needs.
func viewsOf(n int, edges [][2]peer.ID) []*view.View {
	outs := make([][]peer.ID, n)
	for _, e := range edges {
		outs[e[0]] = append(outs[e[0]], e[1])
	}
	views := make([]*view.View, n)
	for u, out := range outs {
		views[u] = view.New(len(out) + 1)
		for i, w := range out {
			views[u].Set(i, w)
		}
	}
	return views
}

// nodesOf reads views the way a substrate's EachNode does: every live node,
// one with a view, in ascending id order.
func nodesOf(views []*view.View) Nodes {
	return func(fn func(peer.ID, *view.View, protocol.StepCore)) {
		for u, v := range views {
			if v != nil {
				fn(peer.ID(u), v, nil)
			}
		}
	}
}

// refDegrees is the degree balance of the ids of g, summed in the order
// given: the reference a Pass's degrees are held to bit for bit.
func refDegrees(g *Graph, ids []peer.ID) Degrees {
	var out, in stats.Accumulator
	var d Degrees
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

// TestPass reads an overlay of eight ids in place: two disjoint rings
// 0→1→2→0 and 3→4→5→3 (5 holds 3 twice), a live node 6 whose view holds only
// itself, and node 7, which has departed but whose id lingers in the views of
// 0 and 4. Over the live nodes the components are three; over all eight ids
// the rings meet at 7 and they are two.
func TestPass(t *testing.T) {
	outs := map[peer.ID][]peer.ID{0: {1, 7}, 1: {2}, 2: {0}, 3: {4}, 4: {5, 7}, 5: {3, 3}, 6: {6}}
	views := make([]*view.View, 8)
	live := []peer.ID{0, 1, 2, 3, 4, 5, 6}
	for _, u := range live {
		views[u] = view.New(4)
		for i, w := range outs[u] {
			views[u].Set(2*i+1, w) // leave empty slots between the entries
		}
	}
	p := NewPass(len(views))
	got := p.Live(nodesOf(views))
	want := Quality{
		Vertices: 7, Edges: 10, Slots: 28, SelfEdges: 1, Duplicates: 1, Stale: 2, Components: 3,
		Degrees: Degrees{MeanOut: 10.0 / 7, MeanIn: 8.0 / 7, MinOut: 1, MaxOut: 2, MinIn: 1, MaxIn: 2},
	}
	got.VarOut, got.VarIn = 0, 0 // held to the graph below
	if got != want {
		t.Errorf("Live = %+v,\nwant %+v", got, want)
	}
	if f := got.EmptyFraction(); math.Abs(f-18.0/28) > 1e-12 {
		t.Errorf("EmptyFraction = %v, want 18/28", f)
	}
	if f := got.DependentFraction(); math.Abs(f-0.2) > 1e-12 || got.Connected() {
		t.Errorf("DependentFraction = %v, Connected = %v; want 0.2, false", f, got.Connected())
	}
	g := FromViews(views)
	if d := p.Live(nodesOf(views)).Degrees; d != refDegrees(g, live) {
		t.Errorf("Live degrees %+v, the graph's over the live nodes %+v", d, refDegrees(g, live))
	}
	u := p.Universe(nodesOf(views))
	if u.Vertices != 8 || u.Components != 2 || u.MinOut != 0 || p.Indegree(7) != 2 || u.Degrees != refDegrees(g, append(live, 7)) {
		t.Errorf("Universe = %+v, Indegree(7) = %d; want 8 vertices in 2 components, the departed 7 of outdegree 0 and indegree 2", u, p.Indegree(7))
	}
	if d := p.Group([]peer.ID{7, 3}); d != refDegrees(g, []peer.ID{7, 3}) {
		t.Errorf("Group(7, 3) = %+v, the graph's %+v", d, refDegrees(g, []peer.ID{7, 3}))
	}
	if q := NewPass(0).Universe(nodesOf(nil)); q != (Quality{}) || q.EmptyFraction() != 0 || q.DependentFraction() != 0 {
		t.Errorf("empty universe: %+v", q)
	}
}

// TestQuickPassMatchesGraph holds both readings of one Pass, reused, to the
// graph of the same views: random views, some departed, over random
// universes. Under Universe every id is a vertex, under Live the live nodes
// only; the degrees match bit for bit.
func TestQuickPassMatchesGraph(t *testing.T) {
	p := NewPass(20)
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%20) + 1
		r := rng.New(rng.Seed(seed))
		s := 1 + r.Intn(6)
		views := make([]*view.View, n)
		var all, live, group []peer.ID
		for u := range views {
			all = append(all, peer.ID(u))
			if r.Intn(3) > 0 {
				group = append(group, peer.ID(u))
			}
			if r.Intn(4) == 0 {
				continue
			}
			views[u] = view.New(s)
			for i := range s {
				if r.Intn(3) > 0 {
					views[u].Set(i, peer.ID(r.Intn(n)))
				}
			}
			live = append(live, peer.ID(u))
		}
		if len(p.out) != n {
			p = NewPass(n)
		}
		g := FromViews(views)
		want := Quality{
			Vertices: n, Edges: g.NumEdges(), Degrees: refDegrees(g, all), Slots: s * len(live),
			SelfEdges: g.SelfEdges(), Duplicates: g.DuplicateEntries(), Stale: g.StaleEdges(live), Components: g.ComponentCount(),
		}
		if got := p.Universe(nodesOf(views)); got != want {
			t.Logf("n=%d Universe = %+v,\nwant %+v", n, got, want)
			return false
		}
		want.Vertices, want.Degrees, want.Components = len(live), refDegrees(g, live), g.InducedComponents(live)
		if got := p.Live(nodesOf(views)); got != want {
			t.Logf("n=%d Live = %+v,\nwant %+v", n, got, want)
			return false
		}
		for _, u := range all {
			if p.Indegree(u) != g.Indegree(u) {
				return false
			}
		}
		return p.Group(group) == refDegrees(g, group)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPassBytesIndependentOfN holds a reading through a kept Pass to the
// same bytes at n = 1,000 and 8,000: the walks' closures, nothing per node.
// Each size keeps the least of five readings, so an allocation of the
// runtime's own between the two reads does not count.
func TestPassBytesIndependentOfN(t *testing.T) {
	readBytes := func(n int) uint64 {
		views := make([]*view.View, n)
		for u := range views {
			views[u] = view.New(4)
			views[u].Set(0, peer.ID((u+1)%n))
			views[u].Set(2, peer.ID((u+7)%n))
		}
		nodes, p := nodesOf(views), NewPass(n)
		p.Universe(nodes)
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
	if large > small {
		t.Errorf("two readings allocate %d B at n = 8,000 against %d B at n = 1,000: the Pass allocates per node", large, small)
	}
}

// TestQuickInducedComponentsMatchesSearch holds the union-find to a
// breadth-first search over the undirected member-to-member edges of random
// graphs, with random member sets.
func TestQuickInducedComponentsMatchesSearch(t *testing.T) {
	f := func(seed int64, nRaw, mRaw uint8) bool {
		n := int(nRaw%15) + 1
		r := rng.New(rng.Seed(seed))
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

// EmptyFraction returns the share of the live nodes' view slots holding no id.
func (q Quality) EmptyFraction() float64 {
	return float64(q.Slots-q.Edges) / max(float64(q.Slots), 1)
}
