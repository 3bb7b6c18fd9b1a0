// Package graph models the membership graph of Section 4: a directed
// multigraph G = (V, E) whose vertices are nodes and whose edge multiset
// contains (u, v) with the multiplicity of v in u.lv.
//
// The package provides the structural queries the analysis needs — in- and
// outdegrees, sum degrees, weak connectivity, self-edge and parallel-edge
// counts, and stale edges — over a snapshot of protocol views (as
// views, or as the flat slot array the sharded engine keeps them in) or a
// standalone edge multiset built by tests. A Counter reads the size and weak
// connectivity of the graph over the live nodes off their views in place,
// with no snapshot taken.
package graph

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"sendforget/internal/peer"
	"sendforget/internal/view"
)

// Graph is an immutable snapshot of a membership graph over nodes 0..n-1. The
// out-lists lie back to back in one edge array, node u's at
// edges[off[u]:off[u+1]] (compressed sparse rows), so a snapshot is four
// allocations at any n instead of one per node. The offsets and in-degrees
// are 32-bit, like the ids: an edge count n*s stays below 2^31 at every size
// the engines run (10^6 nodes of 40 slots are 4*10^7 edges).
type Graph struct {
	n     int
	off   []int32   // len n+1; off[0] = 0
	edges []peer.ID // every out-list in node order, each in slot order
	in    []int32   // in[u] = indegree din(u)
}

// newGraph returns a graph over n nodes with room for m edges, whose
// out-lists the caller appends to g.edges node by node, ending each with
// endList.
func newGraph(n, m int) *Graph {
	if m > math.MaxInt32 {
		panic(fmt.Sprintf("graph: %d edges, more than 32-bit offsets address", m))
	}
	return &Graph{n: n, off: make([]int32, n+1), edges: make([]peer.ID, 0, m), in: make([]int32, n)}
}

// endList ends node u's out-list — what was appended since node u-1's ended —
// and counts the in-degrees of its ids that lie in the universe.
func (g *Graph) endList(u int) {
	for _, w := range g.edges[g.off[u]:] {
		if int(w) >= 0 && int(w) < g.n {
			g.in[w]++
		}
	}
	g.off[u+1] = int32(len(g.edges))
}

// FromViews snapshots the membership graph induced by views; views[u] is
// node u's local view (nil views denote departed nodes with no out-edges).
// It counts the edges, then copies them.
func FromViews(views []*view.View) *Graph {
	m := 0
	for _, v := range views {
		if v != nil {
			m += v.Outdegree()
		}
	}
	g := newGraph(len(views), m)
	for u, v := range views {
		if v != nil {
			g.edges = v.AppendIDs(g.edges)
		}
		g.endList(u)
	}
	return g
}

// FromSlots snapshots the membership graph of views of s slots each laid end
// to end in slots — node u's is slots[u*s:(u+1)*s], peer.Nil marking an empty
// entry — of which those of nodes for which live is false are departed and
// have no out-edges. Like FromViews it counts the edges, then copies them, and
// allocates nothing but the graph.
func FromSlots(slots []peer.ID, s int, live func(peer.ID) bool) *Graph {
	n := len(slots) / s
	window := func(u int) []peer.ID {
		if !live(peer.ID(u)) {
			return nil
		}
		return slots[u*s : (u+1)*s]
	}
	m := 0
	for u := 0; u < n; u++ {
		for _, id := range window(u) {
			if id != peer.Nil {
				m++
			}
		}
	}
	g := newGraph(n, m)
	for u := 0; u < n; u++ {
		for _, id := range window(u) {
			if id != peer.Nil {
				g.edges = append(g.edges, id)
			}
		}
		g.endList(u)
	}
	return g
}

// FromEdges builds a graph over n nodes from an explicit edge multiset; each
// node's out-list keeps the order its edges have in edges. It panics if an
// endpoint is out of range.
func FromEdges(n int, edges [][2]peer.ID) *Graph {
	for _, e := range edges {
		if u, v := e[0], e[1]; int(u) < 0 || int(u) >= n || int(v) < 0 || int(v) >= n {
			panic(fmt.Sprintf("graph: edge (%v,%v) out of range n=%d", u, v, n))
		}
	}
	bySource := slices.Clone(edges)
	slices.SortStableFunc(bySource, func(a, b [2]peer.ID) int { return cmp.Compare(a[0], b[0]) })
	g := newGraph(n, len(edges))
	for u := 0; u < n; u++ {
		for len(bySource) > 0 && int(bySource[0][0]) == u {
			g.edges = append(g.edges, bySource[0][1])
			bySource = bySource[1:]
		}
		g.endList(u)
	}
	return g
}

// out returns u's out-list, capacity-clipped so that no append through it
// reaches the next node's.
func (g *Graph) out(u int) []peer.ID { return g.edges[g.off[u]:g.off[u+1]:g.off[u+1]] }

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// NumEdges returns the total number of edges (with multiplicity).
func (g *Graph) NumEdges() int { return len(g.edges) }

// Outdegree returns d(u).
func (g *Graph) Outdegree(u peer.ID) int { return int(g.off[u+1] - g.off[u]) }

// Indegree returns din(u).
func (g *Graph) Indegree(u peer.ID) int { return int(g.in[u]) }

// SumDegree returns ds(u) = d(u) + 2*din(u) (Definition 6.1).
func (g *Graph) SumDegree(u peer.ID) int { return g.Outdegree(u) + 2*g.Indegree(u) }

// OutNeighbors returns u's out-neighbor multiset in slot order. The caller
// must not mutate the returned slice.
func (g *Graph) OutNeighbors(u peer.ID) []peer.ID { return g.out(int(u)) }

// SelfEdges returns the number of entries u.lv[i] = u summed over all nodes.
// The paper conservatively labels all self-edges dependent.
func (g *Graph) SelfEdges() int {
	c := 0
	for u := 0; u < g.n; u++ {
		for _, w := range g.out(u) {
			if int(w) == u {
				c++
			}
		}
	}
	return c
}

// DuplicateEntries returns the number of redundant same-view duplicates:
// for each node and each distinct id with multiplicity m >= 2 in its view,
// m-1 entries count as duplicates ("all but one of these edges are
// considered dependent").
func (g *Graph) DuplicateEntries() int {
	c := 0
	counts := make(map[peer.ID]int)
	for u := 0; u < g.n; u++ {
		clear(counts)
		for _, w := range g.out(u) {
			counts[w]++
		}
		for _, m := range counts {
			if m > 1 {
				c += m - 1
			}
		}
	}
	return c
}

// WeaklyConnected reports whether the graph, viewed as undirected, has a
// single connected component spanning all n vertices. Isolated vertices make
// the graph disconnected (for n > 1).
func (g *Graph) WeaklyConnected() bool { return g.ComponentCount() <= 1 }

// ComponentCount returns the number of weakly connected components,
// computed with a union-find over the undirected support of the edge set.
func (g *Graph) ComponentCount() int {
	uf := newUnionFind(g.n)
	for u := range g.n {
		uf.add(peer.ID(u))
	}
	for u := range g.n {
		uf.joinAll(peer.ID(u), g.out(u))
	}
	return uf.comps
}

// InducedComponents returns the number of weakly connected components of
// the subgraph induced by members: only edges with both endpoints in the
// member set count, and only members count as vertices. Churn experiments
// use it to check connectivity among live nodes while stale ids of departed
// nodes still linger in views.
func (g *Graph) InducedComponents(members []peer.ID) int {
	uf := newUnionFind(g.n)
	for _, u := range members {
		uf.add(u)
	}
	for _, u := range members {
		uf.joinAll(u, g.out(int(u)))
	}
	return uf.comps
}

// StaleEdges returns the number of view entries pointing outside the member
// set — the lingering ids of departed nodes (Section 6.5).
func (g *Graph) StaleEdges(members []peer.ID) int {
	member := make([]bool, g.n)
	for _, u := range members {
		member[u] = true
	}
	stale := 0
	for _, u := range members {
		for _, w := range g.out(int(u)) {
			if int(w) < 0 || int(w) >= g.n || !member[w] {
				stale++
			}
		}
	}
	return stale
}

// Multiplicity returns the multiplicity of edge (u, v).
func (g *Graph) Multiplicity(u, v peer.ID) int {
	m := 0
	for _, w := range g.out(int(u)) {
		if w == v {
			m++
		}
	}
	return m
}

// IDInstances returns the total number of entries holding id across all
// views — the "instances of u's id in the system" of Section 6.5.
func (g *Graph) IDInstances(id peer.ID) int { return g.Indegree(id) }

// Counter counts the vertices, edges and weakly connected components of a
// membership graph read in place, with no Graph built: each live node is
// named first (Live), then each live node's view is added (Out). The
// vertices are the live nodes; an entry naming any other id, such as the
// lingering id of a departed node, counts as an edge and joins no component.
// It holds 4 bytes per id of the universe.
type Counter struct {
	uf          unionFind
	live, edges int
}

// NewCounter returns a Counter over the ids 0..n-1, none of them live yet.
func NewCounter(n int) *Counter { return &Counter{uf: newUnionFind(n)} }

// Live makes node u a vertex. Every live node is named before any view is
// added.
func (c *Counter) Live(u peer.ID) {
	c.uf.add(u)
	c.live++
}

// Out adds live node u's out-edges: the occupied entries of its view lv.
func (c *Counter) Out(u peer.ID, lv *view.View) {
	r := c.uf.find(u)
	for i := range lv.Size() {
		if w := lv.Slot(i); w != peer.Nil {
			c.edges++
			r = c.uf.join(r, w)
		}
	}
}

// Summary returns the counts of everything added so far.
func (c *Counter) Summary() Summary {
	return Summary{n: c.live, edges: c.edges, comps: c.uf.comps}
}

// Summary is the size and weak connectivity of a membership graph: the
// three numbers an overlay report reads, without the graph.
type Summary struct{ n, edges, comps int }

// N returns the number of vertices.
func (s Summary) N() int { return s.n }

// NumEdges returns the total number of edges (with multiplicity).
func (s Summary) NumEdges() int { return s.edges }

// ComponentCount returns the number of weakly connected components.
func (s Summary) ComponentCount() int { return s.comps }

// absent marks an id of a unionFind's universe that is not a vertex. No set
// is 2^31 vertices large, so no root holds it.
const absent = math.MinInt32

// unionFind is a weighted quick-union with path halving over the ids
// 0..len(p)-1, one int32 each: a root holds minus the size of its set, any
// other vertex its parent, and an id that is not a vertex holds absent.
type unionFind struct {
	p     []int32
	comps int // sets among the vertices
}

// newUnionFind returns a union-find over the ids 0..n-1 with no vertices.
func newUnionFind(n int) unionFind {
	p := make([]int32, n)
	for i := range p {
		p[i] = absent
	}
	return unionFind{p: p}
}

// add makes id u a vertex, alone in its set.
func (uf *unionFind) add(u peer.ID) {
	uf.p[u] = -1
	uf.comps++
}

// find returns the root of vertex x's set.
func (uf *unionFind) find(x peer.ID) peer.ID {
	p := uf.p
	for p[x] >= 0 {
		if gp := p[p[x]]; gp >= 0 {
			p[x] = gp
		}
		x = peer.ID(p[x])
	}
	return x
}

// join merges the set of w, if w is a vertex, into the set whose root is r,
// and returns the root of the merged set. A caller walking one vertex's
// out-list finds its root once and passes each join's result to the next.
func (uf *unionFind) join(r, w peer.ID) peer.ID {
	p := uf.p
	if uint32(w) >= uint32(len(p)) || p[w] == absent {
		return r
	}
	rw := uf.find(w)
	if rw == r {
		return r
	}
	if p[r] > p[rw] { // keep r the root of the larger set
		r, rw = rw, r
	}
	p[r] += p[rw]
	p[rw] = int32(r)
	uf.comps--
	return r
}

// joinAll joins vertex u's set with that of every vertex in ws.
func (uf *unionFind) joinAll(u peer.ID, ws []peer.ID) {
	r := uf.find(u)
	for _, w := range ws {
		r = uf.join(r, w)
	}
}
