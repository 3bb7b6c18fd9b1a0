// Package graph models the membership graph of Section 4: a directed
// multigraph G = (V, E) whose vertices are nodes and whose edge multiset
// contains (u, v) with the multiplicity of v in u.lv.
//
// A Pass reads what the paper's properties are measured on — size, degree
// balance, visible dependence, stale entries and weak connectivity — off the
// live nodes' views in place. A Graph is a snapshot with adjacency: the
// out-lists of a copy of the views (or of the flat slot array the sharded
// engine keeps them in) or of a standalone edge multiset built by tests, and
// the structural queries tests hold a Pass to.
package graph

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"sendforget/internal/peer"
	"sendforget/internal/protocol"
	"sendforget/internal/stats"
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

// Pass reads the quality of a membership graph off the live nodes' views in
// place, with no Graph built: one walk names the live nodes, a second adds
// their views. Universe reads every id 0..n-1 as a vertex (a departed node
// has outdegree 0, as in a Graph snapshot), Live only the live nodes; the two
// agree whenever every node is live. Under both an entry naming a departed id
// is an edge counted toward that id's indegree, and under Live it joins no
// component. Degrees are summed over the vertices in ascending id order. A
// Pass holds 16 bytes an id and allocates nothing per node for a reading, so
// a caller that reads repeatedly keeps one.
type Pass struct {
	uf   unionFind
	out  []int32 // out[u] = outdegree of live node u; -1 for any other id
	in   []int32 // in[w] = entries naming w
	seen []int32 // seen[w] = u+1 once w is met in live node u's view
}

// Nodes is what a Pass reads: a substrate's EachNode, which calls fn for
// every live node in ascending id order with its view.
type Nodes func(fn func(u peer.ID, lv *view.View, core protocol.StepCore))

// NewPass returns a Pass over the ids 0..n-1.
func NewPass(n int) *Pass {
	return &Pass{uf: unionFind{p: make([]int32, n)}, out: make([]int32, n), in: make([]int32, n), seen: make([]int32, n)}
}

// Universe reads the graph with every id of the universe as a vertex.
func (p *Pass) Universe(nodes Nodes) Quality { return p.read(nodes, true) }

// Live reads the graph with the live nodes as its vertices.
func (p *Pass) Live(nodes Nodes) Quality { return p.read(nodes, false) }

func (p *Pass) read(nodes Nodes, universe bool) Quality {
	for i := range p.out {
		p.uf.p[i], p.out[i], p.in[i], p.seen[i] = absent, -1, 0, 0
	}
	p.uf.comps = 0
	nodes(func(u peer.ID, _ *view.View, _ protocol.StepCore) { p.out[u] = 0 })
	for u, d := range p.out {
		if universe || d == 0 {
			p.uf.add(peer.ID(u))
		}
	}
	var q Quality
	nodes(func(u peer.ID, lv *view.View, _ protocol.StepCore) {
		if p.out[u] != 0 { // not named by the first walk: it joined since
			return
		}
		r, stamp, d := p.uf.find(u), int32(u)+1, int32(0)
		for i := range lv.Size() {
			w := lv.Slot(i)
			if w == peer.Nil {
				continue
			}
			d++
			if uint32(w) >= uint32(len(p.out)) || p.out[w] < 0 {
				q.Stale++
				if uint32(w) >= uint32(len(p.out)) {
					continue
				}
			}
			p.in[w]++
			if w == u {
				q.SelfEdges++
			}
			if p.seen[w] == stamp {
				q.Duplicates++
			}
			p.seen[w] = stamp
			r = p.uf.join(r, w)
		}
		p.out[u] = d
		q.Edges += int(d)
		q.Slots += lv.Size()
	})
	var s degreeSum
	for u, d := range p.out {
		if universe || d >= 0 {
			s.add(max(d, 0), p.in[u])
		}
	}
	q.Vertices, q.Degrees, q.Components = s.n, s.result(), p.uf.comps
	return q
}

// Group returns the degree balance of the ids in group, summed in the order
// given, as the last reading found them; a departed id has outdegree 0.
func (p *Pass) Group(group []peer.ID) Degrees {
	var s degreeSum
	for _, u := range group {
		s.add(max(p.out[u], 0), p.in[u])
	}
	return s.result()
}

// Indegree returns the entries naming id u, live or not, in the last reading.
func (p *Pass) Indegree(u peer.ID) int { return int(p.in[u]) }

// Quality is one reading of a membership graph: its size, its degree balance
// (Property M2), the dependence its edges show (M4) and its weak
// connectivity.
type Quality struct {
	Vertices int
	Edges    int // occupied entries of the live nodes' views
	Degrees
	Slots int // the live nodes' view capacity
	// SelfEdges counts entries naming their own node, Duplicates all but one
	// entry of each id a view holds more than once: both are dependent.
	SelfEdges, Duplicates int
	Stale                 int // entries naming an id that is not a live node
	Components            int // weakly connected
}

// DependentFraction returns (self-edges + duplicates) / edges.
func (q Quality) DependentFraction() float64 {
	return float64(q.SelfEdges+q.Duplicates) / max(float64(q.Edges), 1)
}

// Connected reports whether the graph is weakly connected.
func (q Quality) Connected() bool { return q.Components <= 1 }

// ComponentCount returns Components; the benchmark module reads it.
func (q Quality) ComponentCount() int { return q.Components }

// Degrees is the in- and outdegree balance of a vertex set: means and
// population variances, minima and maxima, all 0 for an empty set.
type Degrees struct {
	MeanOut, VarOut, MeanIn, VarIn float64
	MinOut, MaxOut, MinIn, MaxIn   int
}

// degreeSum adds up a Degrees one vertex at a time.
type degreeSum struct {
	n       int
	out, in stats.Accumulator
	d       Degrees
}

func (s *degreeSum) add(out, in int32) {
	o, i, d := int(out), int(in), &s.d
	if s.n++; s.n == 1 {
		d.MinOut, d.MaxOut, d.MinIn, d.MaxIn = o, o, i, i
	}
	s.out.Add(float64(o))
	s.in.Add(float64(i))
	d.MinOut, d.MaxOut, d.MinIn, d.MaxIn = min(d.MinOut, o), max(d.MaxOut, o), min(d.MinIn, i), max(d.MaxIn, i)
}

func (s *degreeSum) result() Degrees {
	d := s.d
	d.MeanOut, d.VarOut, d.MeanIn, d.VarIn = s.out.Mean(), s.out.Variance(), s.in.Mean(), s.in.Variance()
	return d
}

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
