package experiments

import (
	"math"
	"testing"

	"sendforget/internal/graph"
	"sendforget/internal/peer"
	"sendforget/internal/protocol"
	"sendforget/internal/view"
)

// nodesOf visits hand-built views as a substrate's EachNode would: the
// non-nil ones, in id order.
func nodesOf(views ...*view.View) graph.Nodes {
	return func(fn func(peer.ID, *view.View, protocol.StepCore)) {
		for u, v := range views {
			if v != nil {
				fn(peer.ID(u), v, nil)
			}
		}
	}
}

func TestOccupancy(t *testing.T) {
	oc := &occupancy{observer: 0, counts: make([]int, 4)}
	v := view.New(6)
	v.Set(0, 1)
	v.Set(1, 2)
	v.Set(2, 2) // duplicate: presence counts once
	v.Set(3, 0) // self id: counted internally, excluded from others
	oc.sample(nodesOf(v))
	oc.sample(nodesOf(nil)) // the observer is not visited: ignored
	if oc.samples != 1 {
		t.Fatalf("samples = %d, want 1", oc.samples)
	}
	counts := oc.others()
	if len(counts) != 3 {
		t.Fatalf("others length = %d, want 3 (observer excluded)", len(counts))
	}
	// counts for ids 1, 2, 3.
	if counts[0] != 1 || counts[1] != 1 || counts[2] != 0 {
		t.Errorf("others = %v, want [1 1 0]", counts)
	}
}

func TestUniformityTest(t *testing.T) {
	oc := &occupancy{observer: 0, counts: make([]int, 5)}
	if _, _, err := oc.uniformityTest(); err == nil {
		t.Error("uniformityTest accepted zero samples")
	}
	// Feed perfectly uniform presence.
	for k := 0; k < 100; k++ {
		v := view.New(8)
		v.Set(0, 1)
		v.Set(1, 2)
		v.Set(2, 3)
		v.Set(3, 4)
		oc.sample(nodesOf(v))
	}
	stat, p, err := oc.uniformityTest()
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
	if got := multisetOverlap(a, b); got != 2 {
		t.Errorf("multisetOverlap = %d, want 2", got)
	}
	// A node with no reference view has nothing in common with it.
	if got := (reference{nil}).overlap(nodesOf(b)); got != 0 {
		t.Errorf("nil overlap = %v, want 0", got)
	}
	if got := multisetOverlap(a, view.New(4)); got != 0 {
		t.Errorf("empty overlap = %d, want 0", got)
	}
}

func TestReferenceOverlap(t *testing.T) {
	v0 := view.New(4)
	v0.Set(0, 1)
	v0.Set(1, 2)
	v1 := view.New(4)
	v1.Set(0, 3)
	ref := reference{v0.Clone(), v1.Clone(), nil}
	// Identical views: full overlap.
	if got := ref.overlap(nodesOf(v0, v1, nil)); got != 1 {
		t.Errorf("self overlap = %v, want 1", got)
	}
	// Mutating the live view must not affect the reference.
	v0.Set(0, 9)
	got := ref.overlap(nodesOf(v0, v1, nil))
	want := 2.0 / 3.0 // entries {9,2} and {3}: overlap {2} and {3} = 2 of 3
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("overlap after mutation = %v, want %v", got, want)
	}
	// Disjoint views: zero.
	w0 := view.New(4)
	w0.Set(0, 7)
	if got := ref.overlap(nodesOf(w0, nil, nil)); got != 0 {
		t.Errorf("disjoint overlap = %v, want 0", got)
	}
	// No entries at all.
	if got := ref.overlap(nodesOf(nil, nil, nil)); got != 0 {
		t.Errorf("empty overlap = %v, want 0", got)
	}
}

func TestIndependenceBaseline(t *testing.T) {
	v0 := view.New(4)
	v0.Set(0, 1)
	v0.Set(1, 2)
	ref := reference{v0}
	// Mean reference degree 2 over n=100 ids: baseline 0.02.
	if got := ref.independenceBaseline(100); math.Abs(got-0.02) > 1e-12 {
		t.Errorf("baseline = %v, want 0.02", got)
	}
	if got := ref.independenceBaseline(0); got != 0 {
		t.Errorf("baseline n=0 = %v, want 0", got)
	}
}
