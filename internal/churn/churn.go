// Package churn implements the join/leave workloads of Section 6.5: the
// decay of a departed node's id instances (Lemmas 6.9-6.10, Figure 6.4) and
// the integration of a newly joined node (Lemmas 6.11-6.13, Corollary 6.14).
package churn

import (
	"fmt"

	"sendforget/internal/peer"
	"sendforget/internal/protocol"
	"sendforget/internal/runtime"
	"sendforget/internal/view"
)

// DecayTrace records the fraction of a departed node's id instances that
// remain in the system after each round since the departure.
type DecayTrace struct {
	// Initial is the instance count at the moment of departure.
	Initial int
	// Remaining[i] is the fraction of Initial still present after i rounds
	// (Remaining[0] == 1 when Initial > 0).
	Remaining []float64
}

// TrackLeaverDecay removes node u from a running system (assumed to be in
// steady state) and runs it for rounds rounds, recording the decay
// of u's id instances. Because u never initiates again, no new instances of
// its id are created and the trace is exactly the quantity that Lemma 6.10
// bounds from above by (1 - (1-l-delta)dL/s^2)^i.
func TrackLeaverDecay(sub runtime.Substrate, u peer.ID, rounds int) (*DecayTrace, error) {
	if rounds < 0 {
		return nil, fmt.Errorf("churn: negative rounds %d", rounds)
	}
	sub.RemoveNode(u)
	initial := instances(sub, u)
	trace := &DecayTrace{Initial: initial, Remaining: make([]float64, rounds+1)}
	if initial == 0 {
		return trace, nil
	}
	trace.Remaining[0] = 1
	for i := 1; i <= rounds; i++ {
		sub.TickRound()
		trace.Remaining[i] = float64(instances(sub, u)) / float64(initial)
	}
	return trace, nil
}

// instances counts the entries naming id in every live view: its indegree
// in the membership graph, read in place.
func instances(sub runtime.Substrate, id peer.ID) int {
	in := 0
	sub.EachNode(func(_ peer.ID, lv *view.View, _ protocol.StepCore) { in += lv.Multiplicity(id) })
	return in
}

// HalfLife returns the first round at which the remaining fraction is at
// most 1/2, or -1 if it never falls that far within the trace.
func (t *DecayTrace) HalfLife() int {
	for i, f := range t.Remaining {
		if f <= 0.5 {
			return i
		}
	}
	return -1
}

// JoinTrace records a joiner's integration into the system.
type JoinTrace struct {
	// Indegree[i] is the joiner's indegree after i rounds since joining
	// (instances of its id in other views).
	Indegree []int
	// Outdegree[i] is the joiner's outdegree after i rounds.
	Outdegree []int
}

// TrackJoinerIntegration joins node u (which must currently be departed)
// with the given seed ids and runs the system for rounds rounds, recording
// u's degrees after each round. Per Section 6.5 the joiner starts with
// outdegree >= dL and indegree 0.
func TrackJoinerIntegration(sub runtime.Substrate, u peer.ID, seeds []peer.ID, rounds int) (*JoinTrace, error) {
	if rounds < 0 {
		return nil, fmt.Errorf("churn: negative rounds %d", rounds)
	}
	if err := sub.AddNode(u, seeds, false); err != nil {
		return nil, err
	}
	trace := &JoinTrace{
		Indegree:  make([]int, rounds+1),
		Outdegree: make([]int, rounds+1),
	}
	record := func(i int) {
		sub.EachNode(func(w peer.ID, lv *view.View, _ protocol.StepCore) {
			trace.Indegree[i] += lv.Multiplicity(u)
			if w == u {
				trace.Outdegree[i] = lv.Outdegree()
			}
		})
	}
	record(0)
	for i := 1; i <= rounds; i++ {
		sub.TickRound()
		record(i)
	}
	return trace, nil
}
