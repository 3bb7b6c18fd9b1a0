package sendforget

import (
	"sendforget/internal/peer"
	"sendforget/internal/protocol"
	"sendforget/internal/view"
)

// TrackedCore is Core with one dependence tag per view slot, realizing the
// dependence Markov chain of Figure 7.1 empirically:
//
//   - independent -> dependent: the entry was kept by a duplicating send, or
//     was created by receiving a message from a duplicating send;
//   - dependent -> independent: the entry moved to a new view via a
//     non-duplicating send.
//
// The steps are Core's, the same bodies: they tag the slots they touched
// when the core has tags. On top of the tag, the paper's Section 2 labeling
// also counts all self-edges as dependent and, for ids with multiplicity
// m > 1 in the same view, m-1 of the copies as dependent.
// DependenceStats.Add applies all three rules; 1 minus its fraction is the
// empirical alpha that Lemma 7.9 bounds from below by 1 - 2(l+delta).
// Tracking costs one bool per view slot and one write to the core per step,
// which is why it is a constructor choice and not part of every Core.
type TrackedCore struct {
	Core
}

var _ protocol.PerNode = (*TrackedCore)(nil)

// PerNode marks the core as one node's own: the tags are its view's.
func (c *TrackedCore) PerNode() {}

// NewTrackedCore builds an S&F step core that tags dependent entries.
func NewTrackedCore(s, dl int) (*TrackedCore, error) {
	c, err := NewCore(s, dl)
	if err != nil {
		return nil, err
	}
	c.dep = make([]bool, s)
	return &TrackedCore{Core: *c}, nil
}

// DependenceStats summarizes the dependence measurement over all views.
type DependenceStats struct {
	Entries    int // nonempty view entries
	Tagged     int // entries tagged dependent by the duplication rule
	SelfEdges  int // entries u.lv[i] = u
	Duplicates int // same-view multiplicity overflow (m-1 per id with m > 1)
	Dependent  int // entries dependent under the union of the three rules
}

// Alpha returns the fraction of independent entries (1 when no entries).
func (s DependenceStats) Alpha() float64 {
	if s.Entries == 0 {
		return 1
	}
	return 1 - float64(s.Dependent)/float64(s.Entries)
}

// Add measures node u's view lv, read with its step core, into s: a
// runtime.Substrate visitor, so sub.EachNode(st.Add) measures a running
// overlay on any engine. A core that is not a TrackedCore, under any
// decorators, carries no tags: its entries count as dependent only under the
// self-edge and multiplicity rules.
func (s *DependenceStats) Add(u peer.ID, lv *view.View, core protocol.StepCore) {
	var dep []bool
	if tc, ok := protocol.Unwrap(core).(*TrackedCore); ok {
		dep = tc.dep
	}
	for i := 0; i < lv.Size(); i++ {
		id := lv.Slot(i)
		if id.IsNil() {
			continue
		}
		s.Entries++
		dependent := false
		if dep != nil && dep[i] {
			s.Tagged++
			dependent = true
		}
		if id == u {
			s.SelfEdges++
			dependent = true
		}
		// Of m copies of one id, all but the first are duplicates.
		for j := 0; j < i; j++ {
			if lv.Slot(j) == id {
				s.Duplicates++
				dependent = true
				break
			}
		}
		if dependent {
			s.Dependent++
		}
	}
}
