package reachability

import (
	"testing"
	"testing/quick"

	"sendforget/internal/rng"
)

var cfg = Config{S: 8, DL: 2}

// square builds the 4-node graph u -> u+1, u+2 (mod 4): outdegree 2... use
// degree 4 variant for headroom above dL.
func square(t *testing.T, deg int) *Graph {
	t.Helper()
	g := NewGraph(4)
	for u := 0; u < 4; u++ {
		for k := 1; k <= deg; k++ {
			g.M[u][(u+k)%4]++
		}
	}
	return g
}

func TestFromMultValidation(t *testing.T) {
	if _, err := FromMult([][]int{{0, 1}, {1}}); err == nil {
		t.Error("accepted ragged matrix")
	}
	if _, err := FromMult([][]int{{0, -1}, {0, 0}}); err == nil {
		t.Error("accepted negative multiplicity")
	}
	g, err := FromMult([][]int{{0, 2}, {1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if g.OutDeg(0) != 2 || g.OutDeg(1) != 1 {
		t.Error("FromMult degrees wrong")
	}
}

func TestApplyBasics(t *testing.T) {
	g := square(t, 3) // outdegrees 3 > dL: sends clear
	before := g.Clone()
	dup, deleted, err := Apply(g, cfg, Action{From: 0, Target: 1, Payload: 2})
	if err != nil {
		t.Fatal(err)
	}
	if dup || deleted {
		t.Errorf("dup=%v deleted=%v, want false/false", dup, deleted)
	}
	if g.M[0][1] != before.M[0][1]-1 || g.M[0][2] != before.M[0][2]-1 {
		t.Error("sender entries not cleared")
	}
	if g.M[1][0] != before.M[1][0]+1 || g.M[1][2] != before.M[1][2]+1 {
		t.Error("receiver entries not created")
	}
}

func TestApplyDuplication(t *testing.T) {
	g := NewGraph(3)
	g.M[0][1] = 1
	g.M[0][2] = 1 // d(0) = 2 = dL: duplication
	dup, _, err := Apply(g, cfg, Action{From: 0, Target: 1, Payload: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !dup {
		t.Error("expected duplication at the dL floor")
	}
	if g.M[0][1] != 1 || g.M[0][2] != 1 {
		t.Error("duplicating send cleared entries")
	}
	if g.M[1][0] != 1 || g.M[1][2] != 1 {
		t.Error("receiver did not store")
	}
}

func TestApplyLoss(t *testing.T) {
	g := square(t, 3)
	recvBefore := g.M[1][0]
	if _, _, err := Apply(g, cfg, Action{From: 0, Target: 1, Payload: 2, Lost: true}); err != nil {
		t.Fatal(err)
	}
	if g.M[1][0] != recvBefore {
		t.Error("lost message still delivered")
	}
	// The non-duplicating sender cleared its entries regardless of loss
	// (Figure 5.2(d)).
	if g.OutDeg(0) != 1 {
		t.Errorf("sender outdegree after lossy send = %d, want 1", g.OutDeg(0))
	}
}

func TestApplyDeletion(t *testing.T) {
	g := NewGraph(3)
	g.M[0][1] = 2
	g.M[0][2] = 2
	g.M[1][0] = 4
	g.M[1][2] = 4 // d(1) = 8 = s: full
	_, deleted, err := Apply(g, cfg, Action{From: 0, Target: 1, Payload: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !deleted {
		t.Error("expected deletion at full receiver")
	}
	if g.OutDeg(1) != 8 {
		t.Errorf("receiver outdegree = %d, want unchanged 8", g.OutDeg(1))
	}
}

func TestApplyValidation(t *testing.T) {
	g := square(t, 2)
	if _, _, err := Apply(g, cfg, Action{From: 0, Target: 3, Payload: 1}); err == nil {
		t.Error("accepted absent target edge (0->3)")
	}
	if _, _, err := Apply(g, cfg, Action{From: 0, Target: 1, Payload: 1}); err == nil {
		t.Error("accepted payload requiring multiplicity 2")
	}
	if _, _, err := Apply(g, cfg, Action{From: 9, Target: 1, Payload: 1}); err == nil {
		t.Error("accepted out-of-range node")
	}
}

func TestEdgeExchange(t *testing.T) {
	g := square(t, 3) // edges u -> u+1, u+2, u+3
	// Exchange (0,2) and (1,3) across the edge 0 -> 1.
	plan, err := EdgeExchange(g, cfg, 0, 2, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := g.Clone()
	want.M[0][2]--
	want.M[0][3]++
	want.M[1][3]--
	want.M[1][2]++
	if err := ApplyAll(g, cfg, plan); err != nil {
		t.Fatal(err)
	}
	if !g.Equal(want) {
		t.Errorf("edge exchange result wrong:\n got %v\nwant %v", g.M, want.M)
	}
}

func TestEdgeExchangePreservesDegrees(t *testing.T) {
	g := square(t, 3)
	outBefore := make([]int, 4)
	for u := range outBefore {
		outBefore[u] = g.OutDeg(u)
	}
	plan, err := EdgeExchange(g, cfg, 0, 2, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := ApplyAll(g, cfg, plan); err != nil {
		t.Fatal(err)
	}
	for u := range outBefore {
		if g.OutDeg(u) != outBefore[u] {
			t.Errorf("node %d outdegree changed %d -> %d", u, outBefore[u], g.OutDeg(u))
		}
	}
}

func TestEdgeExchangePrerequisites(t *testing.T) {
	g := square(t, 2) // outdegree 2 = dL: sends duplicate
	if _, err := EdgeExchange(g, cfg, 0, 2, 1, 3); err == nil {
		t.Error("accepted d(u) = dL")
	}
	g = square(t, 3)
	if _, err := EdgeExchange(g, cfg, 0, 0, 0, 1); err == nil {
		t.Error("accepted u == v")
	}
	if _, err := EdgeExchange(g, cfg, 0, 2, 2, 3); err == nil {
		// 0 -> 2 exists... w=2 means payload is the same as v: requires
		// multiplicity 2 of entry 2.
		t.Error("accepted payload aliasing v without multiplicity")
	}
	// Full receiver.
	full := NewGraph(3)
	full.M[0][1] = 2
	full.M[0][2] = 2
	full.M[1][0] = 4
	full.M[1][2] = 4
	if _, err := EdgeExchange(full, cfg, 0, 2, 1, 2); err == nil {
		t.Error("accepted full v")
	}
}

func TestDegreeBorrow(t *testing.T) {
	g := square(t, 4) // outdegree 4 each; note (u, u+4 mod 4 = u) self loop!
	// square(4) gives each node an edge to itself; rebuild without.
	g = NewGraph(4)
	for u := 0; u < 4; u++ {
		for k := 1; k <= 3; k++ {
			g.M[u][(u+k)%4]++
		}
		g.M[u][(u+1)%4]++ // one doubled edge: outdegree 4
	}
	d0, d1 := g.OutDeg(0), g.OutDeg(1)
	plan, err := DegreeBorrow(g, cfg, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := ApplyAll(g, cfg, plan); err != nil {
		t.Fatal(err)
	}
	if g.OutDeg(0) != d0-2 {
		t.Errorf("d(u) = %d, want %d", g.OutDeg(0), d0-2)
	}
	if g.OutDeg(1) != d1+2 {
		t.Errorf("d(v) = %d, want %d", g.OutDeg(1), d1+2)
	}
}

func TestDegreeBorrowPreservesSumDegrees(t *testing.T) {
	g := square(t, 3)
	sums := func(g *Graph) []int {
		out := make([]int, g.N())
		for u := 0; u < g.N(); u++ {
			out[u] = g.OutDeg(u)
		}
		for u := range g.M {
			for v, m := range g.M[u] {
				out[v] += 2 * m
			}
		}
		return out
	}
	before := sums(g)
	plan, err := DegreeBorrow(g, cfg, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := ApplyAll(g, cfg, plan); err != nil {
		t.Fatal(err)
	}
	after := sums(g)
	for u := range before {
		if before[u] != after[u] {
			t.Errorf("sum degree of %d changed %d -> %d", u, before[u], after[u])
		}
	}
}

func TestDegreeBorrowPrerequisites(t *testing.T) {
	g := square(t, 2)
	if _, err := DegreeBorrow(g, cfg, 0, 1); err == nil {
		t.Error("accepted d(u) = dL")
	}
	g = square(t, 3)
	if _, err := DegreeBorrow(g, cfg, 0, 0); err == nil {
		t.Error("accepted u == v")
	}
}

func TestShedEdges(t *testing.T) {
	g := square(t, 3)
	plan, err := ShedEdges(g, cfg, 0, 1) // wait: d=3, dL=2: shedding once -> 1 < dL... odd degrees
	if err == nil {
		// 3 - 2 = 1 <= dL = 2: must fail.
		if err := ApplyAll(g, cfg, plan); err != nil {
			t.Fatal(err)
		}
		t.Error("shedding below the dL floor accepted")
	}
	// With degree 6 it works.
	g6 := NewGraph(4)
	for u := 0; u < 4; u++ {
		for k := 1; k <= 3; k++ {
			g6.M[u][(u+k)%4] += 2
		}
	}
	plan, err = ShedEdges(g6, cfg, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := ApplyAll(g6, cfg, plan); err != nil {
		t.Fatal(err)
	}
	if g6.OutDeg(0) != 4 {
		t.Errorf("outdegree after shedding = %d, want 4", g6.OutDeg(0))
	}
	// Others unchanged.
	for u := 1; u < 4; u++ {
		if g6.OutDeg(u) != 6 {
			t.Errorf("bystander %d outdegree changed to %d", u, g6.OutDeg(u))
		}
	}
}

func TestGrowEdges(t *testing.T) {
	// Donor at the dL floor with an edge to v: duplicating sends raise
	// d(v) without lowering the donor.
	g := NewGraph(3)
	g.M[0][1] = 1
	g.M[0][2] = 1 // donor 0 at d = 2 = dL
	g.M[1][0] = 2
	g.M[2][0] = 2
	plan, err := GrowEdges(g, cfg, 0, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	dBefore := g.OutDeg(1)
	if err := ApplyAll(g, cfg, plan); err != nil {
		t.Fatal(err)
	}
	if g.OutDeg(1) != dBefore+4 {
		t.Errorf("d(v) = %d, want %d", g.OutDeg(1), dBefore+4)
	}
	if g.OutDeg(0) != 2 {
		t.Errorf("donor outdegree changed to %d", g.OutDeg(0))
	}
	// Donor above the floor must be rejected.
	g2 := square(t, 3)
	if _, err := GrowEdges(g2, cfg, 0, 1, 1); err == nil {
		t.Error("accepted donor above dL")
	}
}

func TestQuickEdgeExchangeOnlyMovesIntendedEdges(t *testing.T) {
	// Property: on random graphs where the prerequisites hold, the edge
	// exchange changes exactly the four intended multiplicities.
	f := func(seed int64) bool {
		r := rng.New(rng.Seed(seed))
		n := 5
		g := NewGraph(n)
		// Random multigraph with outdegree 4 each.
		for u := 0; u < n; u++ {
			for k := 0; k < 4; k++ {
				v := r.Intn(n - 1)
				if v >= u {
					v++
				}
				g.M[u][v]++
			}
		}
		// Find an applicable (u, w, v, z).
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u == v || g.M[u][v] == 0 {
					continue
				}
				for w := 0; w < n; w++ {
					need := 1
					if w == v {
						need = 2
					}
					if g.M[u][w] < need {
						continue
					}
					for z := 0; z < n; z++ {
						if g.M[v][z] == 0 {
							continue
						}
						plan, err := EdgeExchange(g, Config{S: 8, DL: 2}, u, w, v, z)
						if err != nil {
							continue
						}
						got := g.Clone()
						if err := ApplyAll(got, Config{S: 8, DL: 2}, plan); err != nil {
							return false
						}
						want := g.Clone()
						want.M[u][w]--
						want.M[u][z]++
						want.M[v][z]--
						want.M[v][w]++
						return got.Equal(want)
					}
				}
			}
		}
		return true // no applicable exchange in this graph
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
