// Package metrics measures the membership properties M1-M5 of Section 2 on
// live simulations: degree balance (M2), view uniformity (M3), spatial
// dependence (M4, complementing the protocol's own tracker), and temporal
// overlap decay (M5).
package metrics

import (
	"fmt"

	"sendforget/internal/graph"
	"sendforget/internal/peer"
	"sendforget/internal/stats"
	"sendforget/internal/view"
)

// Traffic is the traffic ledger, the only one: every substrate's
// driver.Router holds one and is the single writer of its fields (sfvet's
// counterbalance analyzer rejects a write anywhere else), and engine,
// cluster, sharded engine, /metrics and the experiments all read that same
// value — so loss behavior compares across substrates without a mapping
// between shapes that could drift.
//
// The counting semantics are identical on every substrate: Sends counts
// every attempted transmission, incremented before the fault layer, routing,
// or marshalling rules on the message; each attempt then lands in exactly
// one of Losses (dropped by the fault layer), DeadLetters (survived the
// fault layer but unroutable), or Deliveries (handed to a receive step) —
// immediately, or after a stay in the delay queue. So once the delay queue
// is drained, Sends = Losses + Deliveries + DeadLetters holds exactly.
type Traffic struct {
	// Sends counts attempted transmissions (including replies of
	// request/reply protocols), before loss, routing, or marshalling.
	Sends int
	// Losses counts messages dropped by the fault layer: the base loss
	// model plus the per-link and partition conditions broken out below.
	Losses int
	// Deliveries counts messages handed to a live node's receive step.
	Deliveries int
	// DeadLetters counts messages addressed to departed or unroutable nodes.
	DeadLetters int

	// LinkLosses is the subset of Losses dropped by per-link override
	// models (faults.Conditions.SetLinkLoss).
	LinkLosses int
	// PartitionDrops is the subset of Losses dropped by an active
	// partition (faults.Conditions.Partition).
	PartitionDrops int
	// Delayed counts messages routed through the delay queue; they are
	// additionally counted under Deliveries or DeadLetters when drained.
	Delayed int
}

// Conserved reports whether the traffic identity
// Sends = Losses + Deliveries + DeadLetters holds — true exactly when every
// attempted transmission has been accounted a final fate, i.e. after the
// substrate's delay queue has drained. Cross-substrate tests assert it on
// the engine, the cluster, and the sharded cluster alike.
func (t Traffic) Conserved() bool {
	return t.Sends == t.Losses+t.Deliveries+t.DeadLetters
}

// LossRate returns the empirical loss fraction over all sends.
func (t Traffic) LossRate() float64 {
	if t.Sends == 0 {
		return 0
	}
	return float64(t.Losses) / float64(t.Sends)
}

// DegreeStats summarizes the in/out degree balance of a membership graph
// (Property M2: bounded indegree variance).
type DegreeStats struct {
	MeanOut, VarOut float64
	MeanIn, VarIn   float64
	MinIn, MaxIn    int
}

// Degrees measures the degree balance of g over the given active node set
// (all nodes when active is nil).
func Degrees(g *graph.Graph, active []peer.ID) DegreeStats {
	var out, in stats.Accumulator
	minIn, maxIn := int(^uint(0)>>1), -1
	consider := func(u peer.ID) {
		out.Add(float64(g.Outdegree(u)))
		din := g.Indegree(u)
		in.Add(float64(din))
		if din < minIn {
			minIn = din
		}
		if din > maxIn {
			maxIn = din
		}
	}
	if active == nil {
		for u := 0; u < g.N(); u++ {
			consider(peer.ID(u))
		}
	} else {
		for _, u := range active {
			consider(u)
		}
	}
	if maxIn < 0 {
		minIn, maxIn = 0, 0
	}
	return DegreeStats{
		MeanOut: out.Mean(), VarOut: out.Variance(),
		MeanIn: in.Mean(), VarIn: in.Variance(),
		MinIn: minIn, MaxIn: maxIn,
	}
}

// OccupancyCounter accumulates, for a fixed observer node, how often each
// other node's id appears in the observer's view across samples — the
// estimator behind the Lemma 7.6 uniformity test (Property M3).
type OccupancyCounter struct {
	observer peer.ID
	n        int
	counts   []int
	samples  int
}

// NewOccupancyCounter creates a counter for the observer in an n-node
// system.
func NewOccupancyCounter(observer peer.ID, n int) *OccupancyCounter {
	return &OccupancyCounter{observer: observer, n: n, counts: make([]int, n)}
}

// Sample records the presence (0/1, not multiplicity) of each id in the
// observer's current view.
func (o *OccupancyCounter) Sample(v *view.View) {
	if v == nil {
		return
	}
	o.samples++
	seen := make(map[peer.ID]struct{})
	for _, id := range v.IDs() {
		if int(id) < 0 || int(id) >= o.n {
			continue
		}
		if _, dup := seen[id]; dup {
			continue
		}
		seen[id] = struct{}{}
		o.counts[id]++
	}
}

// Samples returns the number of samples recorded.
func (o *OccupancyCounter) Samples() int { return o.samples }

// Counts returns presence counts for all ids except the observer's own
// (self-edges are dependent by definition and excluded from the uniformity
// claim, which is over v != u).
func (o *OccupancyCounter) Counts() []int {
	out := make([]int, 0, o.n-1)
	for id, c := range o.counts {
		if peer.ID(id) == o.observer {
			continue
		}
		out = append(out, c)
	}
	return out
}

// UniformityTest runs the chi-square test of the hypothesis that all ids
// v != observer are equally likely to appear in the observer's view. It
// returns the statistic and p-value; small p-values reject uniformity.
func (o *OccupancyCounter) UniformityTest() (stat, pValue float64, err error) {
	if o.samples == 0 {
		return 0, 0, fmt.Errorf("metrics: no samples recorded")
	}
	return stats.ChiSquareUniformTest(o.Counts())
}

// MultisetOverlap returns the size of the multiset intersection of the
// non-empty entries of two views — the raw ingredient of the temporal
// overlap measurement (Property M5).
func MultisetOverlap(a, b *view.View) int {
	if a == nil || b == nil {
		return 0
	}
	counts := make(map[peer.ID]int)
	for _, id := range a.IDs() {
		counts[id]++
	}
	overlap := 0
	for _, id := range b.IDs() {
		if counts[id] > 0 {
			counts[id]--
			overlap++
		}
	}
	return overlap
}

// TemporalTracker measures how quickly views forget a reference state: the
// overlap fraction between current views and a snapshot taken at
// construction time. Property M5 predicts decay to the independence
// baseline within O(s log n) actions per node.
type TemporalTracker struct {
	ref []*view.View
}

// NewTemporalTracker snapshots the reference views (deep copies).
func NewTemporalTracker(views []*view.View) *TemporalTracker {
	ref := make([]*view.View, len(views))
	for i, v := range views {
		if v != nil {
			ref[i] = v.Clone()
		}
	}
	return &TemporalTracker{ref: ref}
}

// Overlap returns the fraction of current non-empty entries that also
// appear (as a multiset) in the same node's reference view, in [0, 1].
func (tt *TemporalTracker) Overlap(views []*view.View) float64 {
	common, total := 0, 0
	for i, v := range views {
		if v == nil || i >= len(tt.ref) || tt.ref[i] == nil {
			continue
		}
		common += MultisetOverlap(tt.ref[i], v)
		total += v.Outdegree()
	}
	if total == 0 {
		return 0
	}
	return float64(common) / float64(total)
}

// IndependenceBaseline returns the expected overlap fraction if current
// views were i.i.d. uniform samples: each entry matches a reference entry
// with probability ~ dRef/n (dRef entries among n ids).
func (tt *TemporalTracker) IndependenceBaseline(n int) float64 {
	if n == 0 {
		return 0
	}
	var refDeg stats.Accumulator
	for _, v := range tt.ref {
		if v != nil {
			refDeg.Add(float64(v.Outdegree()))
		}
	}
	return refDeg.Mean() / float64(n)
}

// IIDDependenceBaseline returns the expected numbers of self-edges and
// same-view duplicates that perfectly i.i.d. uniform views of the observed
// sizes would exhibit: per view with d entries, d/n self-edges and about
// C(d,2)/n duplicate pairs. The paper's asymptotic analysis (n >> s)
// neglects these 1/n terms; finite-n measurements subtract them before
// comparing against the Lemma 7.9 bound.
func IIDDependenceBaseline(views []*view.View, n int) (self, dup float64) {
	if n == 0 {
		return 0, 0
	}
	for _, v := range views {
		if v == nil {
			continue
		}
		d := float64(v.Outdegree())
		self += d / float64(n)
		dup += d * (d - 1) / 2 / float64(n)
	}
	return self, dup
}

// SpatialDependence measures the graph-visible dependence markers of
// Section 2 — self-edges and same-view duplicates — as a fraction of all
// entries. The full Property M4 estimator additionally needs the protocol's
// duplication tags (sendforget.DependenceStats); this measurement is
// protocol-agnostic and is what the baseline comparison uses.
type SpatialDependence struct {
	Entries    int
	SelfEdges  int
	Duplicates int
}

// MeasureSpatialDependence inspects a graph snapshot.
func MeasureSpatialDependence(g *graph.Graph) SpatialDependence {
	return SpatialDependence{
		Entries:    g.NumEdges(),
		SelfEdges:  g.SelfEdges(),
		Duplicates: g.DuplicateEntries(),
	}
}

// DependentFraction returns (self-edges + duplicates) / entries.
func (sd SpatialDependence) DependentFraction() float64 {
	if sd.Entries == 0 {
		return 0
	}
	return float64(sd.SelfEdges+sd.Duplicates) / float64(sd.Entries)
}
