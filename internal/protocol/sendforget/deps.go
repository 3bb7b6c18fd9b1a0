package sendforget

import (
	"sendforget/internal/peer"
	"sendforget/internal/protocol"
	"sendforget/internal/rng"
	"sendforget/internal/view"
)

// TrackedCore is Core decorated with one dependence tag per view slot,
// realizing the dependence Markov chain of Figure 7.1 empirically:
//
//   - independent -> dependent: the entry was kept by a duplicating send, or
//     was created by receiving a message from a duplicating send;
//   - dependent -> independent: the entry moved to a new view via a
//     non-duplicating send.
//
// The steps are Core's; the decorator only tags the slots they touched. On
// top of the tag, the paper's Section 2 labeling also counts all self-edges
// as dependent and, for ids with multiplicity m > 1 in the same view, m-1
// of the copies as dependent. MeasureDependence applies all three rules;
// 1 minus its fraction is the empirical alpha that Lemma 7.9 bounds from
// below by 1 - 2(l+delta). Tracking costs one bool per view slot and one
// write to the core per step, which is why it is a constructor choice and
// not part of Core.
type TrackedCore struct {
	Core
	dep []bool // dep[slot]
}

var _ protocol.StepCore = (*TrackedCore)(nil)

// NewTrackedCore builds an S&F step core that tags dependent entries.
func NewTrackedCore(s, dl int) (*TrackedCore, error) {
	c, err := NewCore(s, dl)
	if err != nil {
		return nil, err
	}
	return &TrackedCore{Core: *c, dep: make([]bool, s)}, nil
}

// InitiateBatch runs Core's initiate step and tags the two selected slots:
// on duplication the kept copies now share their information with the
// copies the message creates, so they become dependent; otherwise the slots
// were cleared and their tags reset.
func (c *TrackedCore) InitiateBatch(lv *view.View, u peer.ID, r *rng.RNG, out *protocol.Outbox) (msgs, dups int, ok bool) {
	i, j, dup, ok := c.initiate(lv, u, r, out)
	if ok {
		c.dep[i], c.dep[j] = dup, dup
	}
	return sent(dup, ok)
}

// ReceiveBatch runs Core's receive step and tags the two slots it stored
// into: entries created by a duplicating action are dependent (Figure 7.1:
// "received previously duplicated"); entries moved by a non-duplicating
// action become independent ("sent without duplication").
func (c *TrackedCore) ReceiveBatch(lv *view.View, u peer.ID, pkt protocol.Packet, r *rng.RNG, out *protocol.Outbox) (replied bool, deleted int) {
	a, b, stored, deleted := c.receive(lv, pkt, r)
	if stored {
		c.dep[a], c.dep[b] = pkt.Dup, pkt.Dup
	}
	return false, deleted
}

// Overlay is the read access MeasureDependence needs to a running system:
// every node's view and step core. The sequential engine provides it.
type Overlay interface {
	N() int
	// View returns node u's view, nil for a departed node.
	View(u peer.ID) *view.View
	// Core returns node u's step core.
	Core(u peer.ID) protocol.StepCore
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

// MeasureDependence measures the current views of o. Nodes whose core is
// not a TrackedCore carry no tags: their entries count as dependent only
// under the self-edge and multiplicity rules.
func MeasureDependence(o Overlay) DependenceStats {
	var st DependenceStats
	seen := make(map[peer.ID]int)
	for u := peer.ID(0); int(u) < o.N(); u++ {
		lv := o.View(u)
		if lv == nil {
			continue
		}
		var dep []bool
		if tc, ok := o.Core(u).(*TrackedCore); ok {
			dep = tc.dep
		}
		clear(seen)
		for i := 0; i < lv.Size(); i++ {
			id := lv.Slot(i)
			if id.IsNil() {
				continue
			}
			st.Entries++
			dependent := false
			if dep != nil && dep[i] {
				st.Tagged++
				dependent = true
			}
			if id == u {
				st.SelfEdges++
				dependent = true
			}
			seen[id]++
			if seen[id] > 1 {
				st.Duplicates++
				dependent = true
			}
			if dependent {
				st.Dependent++
			}
		}
	}
	return st
}
