package churn

import (
	"testing"

	"sendforget/internal/analysis"
	"sendforget/internal/peer"
	"sendforget/internal/protocol"
	"sendforget/internal/protocol/sendforget"
	"sendforget/internal/runtime"
)

func steadyEngine(t *testing.T, n int, l float64, seed int64) runtime.Substrate {
	t.Helper()
	e, err := runtime.New(runtime.Config{
		Engine:     runtime.EngineSeq,
		N:          n,
		NewCore:    func() (protocol.StepCore, error) { return sendforget.NewCore(12, 4) },
		InitDegree: 6,
		Loss:       l,
		Seed:       seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	runtime.Run(e, 50) // warm into steady state
	return e
}

func TestTrackLeaverDecay(t *testing.T) {
	e := steadyEngine(t, 60, 0.01, 1)
	trace, err := TrackLeaverDecay(e, 7, 120)
	if err != nil {
		t.Fatal(err)
	}
	if trace.Initial <= 0 {
		t.Fatalf("leaver had no id instances at departure")
	}
	if trace.Remaining[0] != 1 {
		t.Errorf("Remaining[0] = %v, want 1", trace.Remaining[0])
	}
	// Decay must be substantial and must respect the Lemma 6.10 bound in
	// expectation. With dL=4, s=12, per-round retention bound is
	// 1 - 0.97*4/144 ~ 0.973: after 120 rounds bound ~ 3.6%.
	bound, err := analysis.SurvivalBound(0.01, 0.02, 4, 12, 120)
	if err != nil {
		t.Fatal(err)
	}
	final := trace.Remaining[120]
	if final > bound[120]+0.15 {
		t.Errorf("remaining %v far above Lemma 6.10 bound %v", final, bound[120])
	}
	if hl := trace.HalfLife(); hl <= 0 {
		t.Errorf("HalfLife = %d, want positive", hl)
	}
}

func TestTrackLeaverDecayValidation(t *testing.T) {
	e := steadyEngine(t, 20, 0, 2)
	if _, err := TrackLeaverDecay(e, 3, -1); err == nil {
		t.Error("accepted negative rounds")
	}
}

func TestTrackLeaverDecayNoInstances(t *testing.T) {
	e := steadyEngine(t, 20, 0, 3)
	// Remove the node twice: second departure has no instances... instead,
	// remove a node, let its id decay fully, then track a fresh "leave" of
	// an already-gone node.
	e.RemoveNode(5)
	runtime.Run(e, 300)
	trace, err := TrackLeaverDecay(e, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if trace.Initial != 0 {
		t.Skipf("id not fully decayed (%d left); skip degenerate branch", trace.Initial)
	}
	if trace.HalfLife() != -1 && trace.Remaining[0] != 0 {
		t.Errorf("degenerate trace = %+v", trace)
	}
}

func TestTrackJoinerIntegration(t *testing.T) {
	e := steadyEngine(t, 60, 0.01, 4)
	e.RemoveNode(9)
	runtime.Run(e, 100) // flush the id
	trace, err := TrackJoinerIntegration(e, 9, []peer.ID{0, 1, 2, 3}, 80)
	if err != nil {
		t.Fatal(err)
	}
	if trace.Indegree[0] != 0 {
		t.Errorf("joiner initial indegree = %d, want ~0", trace.Indegree[0])
	}
	if trace.Outdegree[0] != 4 {
		t.Errorf("joiner initial outdegree = %d, want 4 (dL seeds)", trace.Outdegree[0])
	}
	// Corollary 6.14 (s/dL = 3 here, so weaker): within ~s^2/dL rounds the
	// joiner must have acquired in-neighbors.
	if trace.Indegree[80] == 0 {
		t.Error("joiner acquired no in-neighbors in 80 rounds")
	}
}

func TestTrackJoinerValidation(t *testing.T) {
	e := steadyEngine(t, 20, 0, 5)
	if _, err := TrackJoinerIntegration(e, 3, []peer.ID{0, 1}, -1); err == nil {
		t.Error("accepted negative rounds")
	}
	// Joining an active node fails.
	if _, err := TrackJoinerIntegration(e, 3, []peer.ID{0, 1, 2, 4}, 5); err == nil {
		t.Error("accepted join of active node")
	}
}
