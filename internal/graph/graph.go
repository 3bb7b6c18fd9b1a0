// Package graph models the membership graph of Section 4: a directed
// multigraph G = (V, E) whose vertices are nodes and whose edge multiset
// contains (u, v) with the multiplicity of v in u.lv.
//
// The package provides the structural queries the analysis needs — in- and
// outdegrees, sum degrees, weak connectivity, self-edge and parallel-edge
// counts, and stale edges — over a snapshot of protocol views (as
// views, or as the flat slot array the sharded engine keeps them in) or a
// standalone edge multiset built by tests.
package graph

import (
	"cmp"
	"fmt"
	"slices"

	"sendforget/internal/peer"
	"sendforget/internal/view"
)

// Graph is an immutable snapshot of a membership graph over nodes 0..n-1. The
// out-lists lie back to back in one edge array, node u's at
// edges[off[u]:off[u+1]] (compressed sparse rows), so a snapshot is four
// allocations at any n instead of one per node.
type Graph struct {
	n     int
	off   []int     // len n+1; off[0] = 0
	edges []peer.ID // every out-list in node order, each in slot order
	in    []int     // in[u] = indegree din(u)
}

// newGraph returns a graph over n nodes with room for m edges, whose
// out-lists the caller appends to g.edges node by node, ending each with
// endList.
func newGraph(n, m int) *Graph {
	return &Graph{n: n, off: make([]int, n+1), edges: make([]peer.ID, 0, m), in: make([]int, n)}
}

// endList ends node u's out-list — what was appended since node u-1's ended —
// and counts the in-degrees of its ids that lie in the universe.
func (g *Graph) endList(u int) {
	for _, w := range g.edges[g.off[u]:] {
		if int(w) >= 0 && int(w) < g.n {
			g.in[w]++
		}
	}
	g.off[u+1] = len(g.edges)
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
func (g *Graph) Outdegree(u peer.ID) int { return g.off[u+1] - g.off[u] }

// Indegree returns din(u).
func (g *Graph) Indegree(u peer.ID) int { return g.in[u] }

// SumDegree returns ds(u) = d(u) + 2*din(u) (Definition 6.1).
func (g *Graph) SumDegree(u peer.ID) int { return g.Outdegree(u) + 2*g.in[u] }

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
	if g.n == 0 {
		return 0
	}
	uf := newUnionFind(g.n)
	for u := 0; u < g.n; u++ {
		for _, w := range g.out(u) {
			uf.union(u, int(w))
		}
	}
	return uf.components()
}

// InducedComponents returns the number of weakly connected components of
// the subgraph induced by members: only edges with both endpoints in the
// member set count, and only members count as vertices. Churn experiments
// use it to check connectivity among live nodes while stale ids of departed
// nodes still linger in views.
func (g *Graph) InducedComponents(members []peer.ID) int {
	if len(members) == 0 {
		return 0
	}
	idx := make(map[peer.ID]int, len(members))
	for i, u := range members {
		idx[u] = i
	}
	uf := newUnionFind(len(members))
	for i, u := range members {
		for _, w := range g.out(int(u)) {
			if j, ok := idx[w]; ok {
				uf.union(i, j)
			}
		}
	}
	return uf.components()
}

// StaleEdges returns the number of view entries pointing outside the member
// set — the lingering ids of departed nodes (Section 6.5).
func (g *Graph) StaleEdges(members []peer.ID) int {
	member := make(map[peer.ID]bool, len(members))
	for _, u := range members {
		member[u] = true
	}
	stale := 0
	for _, u := range members {
		for _, w := range g.out(int(u)) {
			if !member[w] {
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
func (g *Graph) IDInstances(id peer.ID) int { return g.in[id] }

// unionFind is a weighted quick-union with path halving.
type unionFind struct {
	parent []int
	size   []int
	comps  int
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int, n), size: make([]int, n), comps: n}
	for i := range uf.parent {
		uf.parent[i] = i
		uf.size[i] = 1
	}
	return uf
}

func (uf *unionFind) find(x int) int {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]]
		x = uf.parent[x]
	}
	return x
}

func (uf *unionFind) union(a, b int) {
	ra, rb := uf.find(a), uf.find(b)
	if ra == rb {
		return
	}
	if uf.size[ra] < uf.size[rb] {
		ra, rb = rb, ra
	}
	uf.parent[rb] = ra
	uf.size[ra] += uf.size[rb]
	uf.comps--
}

func (uf *unionFind) components() int { return uf.comps }
