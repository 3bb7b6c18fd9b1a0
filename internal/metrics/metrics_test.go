package metrics

import (
	"math"
	"testing"

	"sendforget/internal/view"
)

func TestTrafficLossRate(t *testing.T) {
	tr := Traffic{Sends: 200, Losses: 10, Deliveries: 185, DeadLetters: 5}
	if got := tr.LossRate(); math.Abs(got-0.05) > 1e-12 {
		t.Errorf("LossRate = %v, want 0.05", got)
	}
	if got := (Traffic{}).LossRate(); got != 0 {
		t.Errorf("zero-traffic LossRate = %v, want 0", got)
	}
}

func TestOccupancyCounter(t *testing.T) {
	oc := NewOccupancyCounter(0, 4)
	v := view.New(6)
	v.Set(0, 1)
	v.Set(1, 2)
	v.Set(2, 2) // duplicate: presence counts once
	v.Set(3, 0) // self id: counted internally, excluded from Counts
	oc.Sample(v)
	oc.Sample(nil) // ignored
	if oc.Samples() != 1 {
		t.Fatalf("Samples = %d, want 1", oc.Samples())
	}
	counts := oc.Counts()
	if len(counts) != 3 {
		t.Fatalf("Counts length = %d, want 3 (observer excluded)", len(counts))
	}
	// counts for ids 1, 2, 3.
	if counts[0] != 1 || counts[1] != 1 || counts[2] != 0 {
		t.Errorf("Counts = %v, want [1 1 0]", counts)
	}
}

func TestOccupancyCounterIgnoresOutOfRange(t *testing.T) {
	oc := NewOccupancyCounter(0, 2)
	v := view.New(4)
	v.Set(0, 77) // out of range for n=2
	v.Set(1, 1)
	oc.Sample(v)
	counts := oc.Counts()
	if len(counts) != 1 || counts[0] != 1 {
		t.Errorf("Counts = %v, want [1]", counts)
	}
}

func TestUniformityTest(t *testing.T) {
	oc := NewOccupancyCounter(0, 5)
	if _, _, err := oc.UniformityTest(); err == nil {
		t.Error("UniformityTest accepted zero samples")
	}
	// Feed perfectly uniform presence.
	for k := 0; k < 100; k++ {
		v := view.New(8)
		v.Set(0, 1)
		v.Set(1, 2)
		v.Set(2, 3)
		v.Set(3, 4)
		oc.Sample(v)
	}
	stat, p, err := oc.UniformityTest()
	if err != nil {
		t.Fatal(err)
	}
	if stat != 0 || p < 0.999 {
		t.Errorf("uniform presence: stat=%v p=%v", stat, p)
	}
}

func TestMultisetOverlap(t *testing.T) {
	a := view.New(4)
	a.Set(0, 1)
	a.Set(1, 2)
	a.Set(2, 2)
	b := view.New(4)
	b.Set(0, 2)
	b.Set(1, 2)
	b.Set(2, 2)
	// a has {1, 2, 2}, b has {2, 2, 2}: multiset intersection {2, 2}.
	if got := MultisetOverlap(a, b); got != 2 {
		t.Errorf("MultisetOverlap = %d, want 2", got)
	}
	if got := MultisetOverlap(nil, b); got != 0 {
		t.Errorf("nil overlap = %d, want 0", got)
	}
	if got := MultisetOverlap(a, view.New(4)); got != 0 {
		t.Errorf("empty overlap = %d, want 0", got)
	}
}

func TestTemporalTracker(t *testing.T) {
	v0 := view.New(4)
	v0.Set(0, 1)
	v0.Set(1, 2)
	v1 := view.New(4)
	v1.Set(0, 3)
	tt := NewTemporalTracker([]*view.View{v0, v1, nil})
	// Identical views: full overlap.
	if got := tt.Overlap([]*view.View{v0, v1, nil}); got != 1 {
		t.Errorf("self overlap = %v, want 1", got)
	}
	// Mutating the live view must not affect the snapshot.
	v0.Set(0, 9)
	got := tt.Overlap([]*view.View{v0, v1, nil})
	want := 2.0 / 3.0 // entries {9,2} and {3}: overlap {2} and {3} = 2 of 3
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("overlap after mutation = %v, want %v", got, want)
	}
	// Disjoint views: zero.
	w0 := view.New(4)
	w0.Set(0, 7)
	if got := tt.Overlap([]*view.View{w0, nil, nil}); got != 0 {
		t.Errorf("disjoint overlap = %v, want 0", got)
	}
	// No entries at all.
	if got := tt.Overlap([]*view.View{nil, nil, nil}); got != 0 {
		t.Errorf("empty overlap = %v, want 0", got)
	}
}

func TestIndependenceBaseline(t *testing.T) {
	v0 := view.New(4)
	v0.Set(0, 1)
	v0.Set(1, 2)
	tt := NewTemporalTracker([]*view.View{v0})
	// Mean reference degree 2 over n=100 ids: baseline 0.02.
	if got := tt.IndependenceBaseline(100); math.Abs(got-0.02) > 1e-12 {
		t.Errorf("baseline = %v, want 0.02", got)
	}
	if got := tt.IndependenceBaseline(0); got != 0 {
		t.Errorf("baseline n=0 = %v, want 0", got)
	}
}
