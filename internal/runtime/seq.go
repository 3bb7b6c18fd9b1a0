package runtime

import (
	"sendforget/internal/engine"
	"sendforget/internal/faults"
	"sendforget/internal/graph"
	"sendforget/internal/metrics"
	"sendforget/internal/peer"
	"sendforget/internal/rng"
	"sendforget/internal/view"
)

// seqSubstrate adapts the sequential discrete-event engine
// (internal/engine) to the Substrate interface. The engine builds its nodes
// from the same CoreFactory over the same circulant bootstrap as the
// cluster backends and adds uniform-random-with-replacement scheduling on
// top; its Round is TickRound and churn maps to Join/Leave.
type seqSubstrate struct {
	eng *engine.Engine
}

// newSeq builds the sequential backend from a Config New has resolved.
func newSeq(cfg Config) (Substrate, error) {
	eng, err := engine.NewWithConditions(cfg.NewCore, cfg.N, cfg.InitDegree, cfg.Conditions, rng.New(cfg.Seed))
	if err != nil {
		return nil, err
	}
	return &seqSubstrate{eng: eng}, nil
}

func (s *seqSubstrate) TickRound()    { s.eng.Round() }
func (s *seqSubstrate) DrainDelayed() { s.eng.DrainDelayed() }
func (s *seqSubstrate) Pending() int  { return s.eng.PendingDelayed() }

// Views copies the engine's views, which it hands out live: a caller that
// serializes the call against ticking (mgmt.Local) reads the result after
// the next tick has begun.
func (s *seqSubstrate) Views() []*view.View {
	out := s.eng.Views()
	for u, v := range out {
		if v != nil {
			out[u] = v.Clone()
		}
	}
	return out
}

func (s *seqSubstrate) Snapshot() *graph.Graph         { return s.eng.Snapshot() }
func (s *seqSubstrate) Traffic() metrics.Traffic       { return s.eng.Traffic() }
func (s *seqSubstrate) Counters() NodeCounters         { return s.eng.Tally() }
func (s *seqSubstrate) Conditions() *faults.Conditions { return s.eng.Conditions() }
func (s *seqSubstrate) CheckInvariants() error         { return s.eng.CheckInvariants() }

// AddNode joins node u; the start flag is ignored (the seq engine is
// scheduler-driven, not timer-driven).
func (s *seqSubstrate) AddNode(u peer.ID, seeds []peer.ID, start bool) error {
	_ = start
	if err := checkSeeds(seeds, s.eng.N()); err != nil {
		return err
	}
	return s.eng.Join(u, seeds)
}

func (s *seqSubstrate) RemoveNode(u peer.ID) { s.eng.Leave(u) }

// Close is a no-op: the seq engine holds no goroutines or timers.
func (s *seqSubstrate) Close() {}
