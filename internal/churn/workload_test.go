package churn

import (
	"math"
	goruntime "runtime"
	"testing"

	"sendforget/internal/peer"
	"sendforget/internal/rng"
	"sendforget/internal/runtime"
)

func TestWorkloadValidation(t *testing.T) {
	e := steadyEngine(t, 40, 0, 21)
	r := rng.New(1)
	if _, err := RunWorkload(e, WorkloadConfig{JoinProb: -0.1, MinLive: 5}, 10, 5, r); err == nil {
		t.Error("accepted negative probability")
	}
	if _, err := RunWorkload(e, WorkloadConfig{MinLive: 1}, 10, 5, r); err == nil {
		t.Error("accepted MinLive=1")
	}
	if _, err := RunWorkload(e, WorkloadConfig{MinLive: 5}, 10, 0, r); err == nil {
		t.Error("accepted sampleEvery=0")
	}
	if _, err := RunWorkload(e, WorkloadConfig{MinLive: 5}, -1, 5, r); err == nil {
		t.Error("accepted negative rounds")
	}
}

func TestWorkloadNoChurnIsStable(t *testing.T) {
	e := steadyEngine(t, 60, 0.02, 22)
	stats, err := RunWorkload(e, WorkloadConfig{MinLive: 10}, 100, 25, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Joins != 0 || stats.Leaves != 0 {
		t.Errorf("events fired with zero probabilities: %+v", stats)
	}
	for _, s := range stats.Samples {
		if s.Live != 60 {
			t.Errorf("round %d: live = %d, want 60", s.Round, s.Live)
		}
		if s.LiveComponents != 1 {
			t.Errorf("round %d: %d live components", s.Round, s.LiveComponents)
		}
	}
}

func TestWorkloadSustainedChurn(t *testing.T) {
	e := steadyEngine(t, 80, 0.02, 23)
	// Join bias keeps the population near capacity; leaves at 0.2/round
	// against a ~5%/round stale-decay rate keep staleness a clear minority.
	cfg := WorkloadConfig{JoinProb: 0.25, LeaveProb: 0.2, MinLive: 30}
	stats, err := RunWorkload(e, cfg, 300, 50, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Joins == 0 || stats.Leaves == 0 {
		t.Fatalf("churn did not fire: %+v joins/leaves", stats)
	}
	last := stats.Samples[len(stats.Samples)-1]
	if last.Live < 20 || last.Live > 80 {
		t.Errorf("live population %d out of range", last.Live)
	}
	// The overlay must stay connected among live nodes under moderate
	// churn — the protocol's core promise.
	for _, s := range stats.Samples {
		if s.LiveComponents > 2 {
			t.Errorf("round %d: %d live components (fragmented)", s.Round, s.LiveComponents)
		}
		if s.StaleFraction < 0 || s.StaleFraction > 1 {
			t.Errorf("round %d: stale fraction %v out of range", s.Round, s.StaleFraction)
		}
	}
	// Stale ids exist under churn but must remain a minority (they decay
	// per Lemma 6.10 while churn keeps injecting them).
	if last.StaleFraction > 0.5 {
		t.Errorf("stale fraction %v majority at steady churn", last.StaleFraction)
	}
	if last.MeanOutLive <= 0 {
		t.Error("live nodes lost all their edges")
	}
}

func TestWorkloadLeaveFloor(t *testing.T) {
	e := steadyEngine(t, 30, 0, 24)
	cfg := WorkloadConfig{LeaveProb: 1, MinLive: 25}
	stats, err := RunWorkload(e, cfg, 50, 10, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	last := stats.Samples[len(stats.Samples)-1]
	if last.Live < 25 {
		t.Errorf("live population %d fell below MinLive 25", last.Live)
	}
	if stats.Leaves != 30-25 {
		t.Errorf("leaves = %d, want 5 (down to the floor)", stats.Leaves)
	}
}

func TestWorkloadJoinRevivesDeparted(t *testing.T) {
	e := steadyEngine(t, 30, 0, 25)
	// Empty some slots first.
	for _, u := range []peer.ID{3, 7, 11} {
		e.RemoveNode(u)
	}
	runtime.Run(e, 30)
	cfg := WorkloadConfig{JoinProb: 1, MinLive: 5}
	stats, err := RunWorkload(e, cfg, 10, 5, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Joins != 3 {
		t.Errorf("joins = %d, want 3 (universe refilled)", stats.Joins)
	}
	last := stats.Samples[len(stats.Samples)-1]
	if last.Live != 30 {
		t.Errorf("live = %d, want full 30", last.Live)
	}
}

// TestJoinOneBytesIndependentOfN holds a join's read of its donor to that
// one view: the bytes one joinOne call allocates do not grow with the
// overlay, as they did while it copied every view to read one. Each size
// rejoins node 0 five times from the same draws and keeps the least, so an
// allocation of the runtime's own between the two reads does not count.
func TestJoinOneBytesIndependentOfN(t *testing.T) {
	joinBytes := func(n int) uint64 {
		e := steadyEngine(t, n, 0, 26)
		defer e.Close()
		live := make(map[peer.ID]bool, n)
		var liveList []peer.ID
		for u := peer.ID(1); u < peer.ID(n); u++ {
			live[u] = true
			liveList = append(liveList, u)
		}
		least := uint64(math.MaxUint64)
		for range 5 {
			e.RemoveNode(0)
			var before, after goruntime.MemStats
			goruntime.ReadMemStats(&before)
			joiner, ok := joinOne(e, n, live, liveList, rng.New(27))
			goruntime.ReadMemStats(&after)
			if !ok || joiner != 0 {
				t.Fatalf("n=%d: joinOne = %d, %v; want node 0 back", n, joiner, ok)
			}
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	small, large := joinBytes(1000), joinBytes(8000)
	t.Logf("joinOne allocates %d B at n = 1,000 and %d B at n = 8,000", small, large)
	if large > small {
		t.Errorf("joinOne allocates %d B at n = 8,000 against %d B at n = 1,000: it reads more than the donor's view", large, small)
	}
}
