package loss

import (
	"fmt"

	"sendforget/internal/peer"
	"sendforget/internal/rng"
)

// PerDest drops messages with a per-destination probability, falling back
// to Default for unlisted destinations. The paper restricts its analysis to
// uniform loss but notes that "nonuniform loss occurs in practice [33]"; the
// abl4 experiment probes how far S&F's properties survive it.
type PerDest struct {
	Default float64
	Rates   map[peer.ID]float64
}

// NewPerDest validates the rates.
func NewPerDest(def float64, rates map[peer.ID]float64) (*PerDest, error) {
	if !(def >= 0 && def <= 1) {
		return nil, fmt.Errorf("loss: default rate %v outside [0,1]", def)
	}
	for id, p := range rates {
		if !(p >= 0 && p <= 1) {
			return nil, fmt.Errorf("loss: rate %v for %v outside [0,1]", p, id)
		}
	}
	return &PerDest{Default: def, Rates: rates}, nil
}

// Lost drops the message with to's probability.
func (m *PerDest) Lost(to peer.ID, r *rng.RNG) bool {
	p, ok := m.Rates[to]
	if !ok {
		p = m.Default
	}
	return r.Bernoulli(p)
}

// Rate returns the unweighted average of the configured rates. The sum
// runs over destinations in sorted order so the reported average is
// bit-identical across runs (float addition in map-iteration order is not).
func (m *PerDest) Rate() float64 {
	if len(m.Rates) == 0 {
		return m.Default
	}
	dsts := make([]peer.ID, 0, len(m.Rates))
	for dst := range m.Rates {
		dsts = append(dsts, dst)
	}
	peer.Sort(dsts)
	s := 0.0
	for _, dst := range dsts {
		s += m.Rates[dst]
	}
	return s / float64(len(m.Rates))
}

func (m *PerDest) String() string {
	return fmt.Sprintf("per-dest(default=%.3g, %d overrides)", m.Default, len(m.Rates))
}
