package view

import (
	"testing"
	"testing/quick"

	"sendforget/internal/peer"
	"sendforget/internal/rng"
)

func TestNewEmpty(t *testing.T) {
	v := New(6)
	if v.Size() != 6 {
		t.Fatalf("Size = %d, want 6", v.Size())
	}
	if v.Outdegree() != 0 {
		t.Fatalf("Outdegree of fresh view = %d, want 0", v.Outdegree())
	}
	if v.Full() {
		t.Error("fresh view reports Full")
	}
	for i := 0; i < 6; i++ {
		if !v.Slot(i).IsNil() {
			t.Errorf("slot %d of fresh view = %v, want Nil", i, v.Slot(i))
		}
	}
}

// TestEmptyReusesSlots: Empty empties storage that held a view and wraps it
// without copying, so a write through the view lands in the caller's slice.
func TestEmptyReusesSlots(t *testing.T) {
	slots := []peer.ID{4, peer.Nil, 9, 9}
	v := Empty(slots)
	if v.Size() != 4 || v.Outdegree() != 0 || v.CheckInvariants() != nil {
		t.Fatalf("Empty over a used slice: %v with outdegree %d", &v, v.Outdegree())
	}
	v.Set(2, 7)
	if slots[2] != 7 || slots[0] != peer.Nil {
		t.Errorf("slots %v after Set(2, 7) through the view", slots)
	}
	defer func() {
		if recover() == nil {
			t.Error("Empty(nil) did not panic")
		}
	}()
	Empty(nil)
}

// TestOccupiedMatchesSlots: Occupied answers from the mask up to 64 slots and
// from the slots above, and agrees with them after any sequence of writes.
func TestOccupiedMatchesSlots(t *testing.T) {
	r := rng.New(8)
	for _, s := range []int{2, 63, 64, 65, 130} {
		v := New(s)
		for k := 0; k < 20*s; k++ {
			id := peer.ID(r.Intn(3)) - 1 // Nil a third of the time
			v.Set(r.Intn(s), id)
			for i := 0; i < s; i++ {
				if v.Occupied(i) != (v.Slot(i) != peer.Nil) {
					t.Fatalf("s=%d: Occupied(%d) = %v with slot %v", s, i, v.Occupied(i), v.Slot(i))
				}
			}
		}
	}
}

func TestNewPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0) did not panic")
		}
	}()
	New(0)
}

func TestSetClearOutdegree(t *testing.T) {
	v := New(4)
	v.Set(0, 10)
	v.Set(2, 11)
	if v.Outdegree() != 2 {
		t.Fatalf("Outdegree = %d, want 2", v.Outdegree())
	}
	v.Set(0, 12) // overwrite occupied slot: degree unchanged
	if v.Outdegree() != 2 {
		t.Fatalf("Outdegree after overwrite = %d, want 2", v.Outdegree())
	}
	v.Clear(0)
	if v.Outdegree() != 1 {
		t.Fatalf("Outdegree after clear = %d, want 1", v.Outdegree())
	}
	v.Clear(0) // double clear is a no-op
	if v.Outdegree() != 1 {
		t.Fatalf("Outdegree after double clear = %d, want 1", v.Outdegree())
	}
	v.Set(1, peer.Nil) // Set(Nil) behaves as Clear
	if v.Outdegree() != 1 {
		t.Fatalf("Outdegree after Set(Nil) = %d, want 1", v.Outdegree())
	}
	if err := v.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestFull(t *testing.T) {
	v := New(2)
	v.Set(0, 1)
	v.Set(1, 2)
	if !v.Full() {
		t.Error("view with all slots occupied does not report Full")
	}
}

func TestEmptyAndOccupiedSlots(t *testing.T) {
	// The single-slot selectors draw from exactly the empty and exactly the
	// occupied slots.
	v := New(5)
	v.Set(1, 7)
	v.Set(3, 8)
	r := rng.New(5)
	empty, occupied := map[int]bool{}, map[int]bool{}
	for k := 0; k < 200; k++ {
		i, ok := v.RandomEmptySlot(r)
		if !ok || v.Slot(i) != peer.Nil {
			t.Fatalf("RandomEmptySlot = %d, %v on %v", i, ok, v)
		}
		empty[i] = true
		j, ok := v.RandomOccupiedSlot(r)
		if !ok || v.Slot(j) == peer.Nil {
			t.Fatalf("RandomOccupiedSlot = %d, %v on %v", j, ok, v)
		}
		occupied[j] = true
	}
	if len(empty) != 3 || !empty[0] || !empty[2] || !empty[4] {
		t.Errorf("empty slots drawn = %v, want {0, 2, 4}", empty)
	}
	if len(occupied) != 2 || !occupied[1] || !occupied[3] {
		t.Errorf("occupied slots drawn = %v, want {1, 3}", occupied)
	}
}

func TestIDsAndMultiplicity(t *testing.T) {
	v := New(5)
	v.Set(0, 3)
	v.Set(2, 3)
	v.Set(4, 9)
	ids := v.IDs()
	if len(ids) != 3 {
		t.Fatalf("IDs length = %d, want 3", len(ids))
	}
	if got := v.AppendIDs([]peer.ID{1}); len(got) != 4 || got[0] != 1 || got[1] != 3 || got[2] != 3 || got[3] != 9 {
		t.Errorf("AppendIDs([n1]) = %v, want [n1 n3 n3 n9]", got)
	}
	if v.Multiplicity(3) != 2 {
		t.Errorf("Multiplicity(3) = %d, want 2", v.Multiplicity(3))
	}
	if v.Multiplicity(9) != 1 {
		t.Errorf("Multiplicity(9) = %d, want 1", v.Multiplicity(9))
	}
	if v.Multiplicity(1) != 0 {
		t.Errorf("Multiplicity(1) = %d, want 0", v.Multiplicity(1))
	}
	if v.Multiplicity(peer.Nil) != 0 {
		t.Errorf("Multiplicity(Nil) = %d, want 0", v.Multiplicity(peer.Nil))
	}
	if !v.Contains(3) || v.Contains(1) {
		t.Error("Contains gave wrong answers")
	}
}

func TestRandomPairDistinctSlots(t *testing.T) {
	v := New(6)
	r := rng.New(1)
	for k := 0; k < 1000; k++ {
		i, j := v.RandomPairFast(r)
		if i == j || i < 0 || j < 0 || i >= 6 || j >= 6 {
			t.Fatalf("RandomPairFast = (%d,%d) invalid", i, j)
		}
	}
}

func TestRandomEmptySlots(t *testing.T) {
	v := New(6)
	v.Set(0, 1)
	v.Set(1, 2)
	v.Set(2, 3)
	v.Set(3, 4)
	r := rng.New(2)
	for k := 0; k < 200; k++ {
		a, b, ok := v.RandomEmptyPair(r)
		if !ok {
			t.Fatal("RandomEmptyPair reported insufficient space with 2 empties")
		}
		if a == b {
			t.Fatalf("RandomEmptyPair = (%d, %d) invalid", a, b)
		}
		for _, s := range []int{a, b} {
			if s != 4 && s != 5 {
				t.Fatalf("RandomEmptyPair chose occupied slot %d", s)
			}
		}
	}
	v.Set(4, 5)
	if _, _, ok := v.RandomEmptyPair(r); ok {
		t.Error("RandomEmptyPair succeeded with only one empty slot")
	}
	// The single-slot form still works with one empty slot.
	if i, ok := v.RandomEmptySlot(r); !ok || i != 5 {
		t.Errorf("RandomEmptySlot = %v, %v; want 5, true", i, ok)
	}
}

func TestCloneAndEqual(t *testing.T) {
	v := New(4)
	v.Set(0, 1)
	v.Set(3, 2)
	c := v.Clone()
	if !v.Equal(c) {
		t.Fatal("clone not Equal to original")
	}
	c.Set(1, 9)
	if v.Equal(c) {
		t.Fatal("mutating clone affected Equal comparison")
	}
	if v.Contains(9) {
		t.Fatal("mutating clone leaked into original")
	}
	if v.Equal(New(5)) {
		t.Error("views of different sizes compare Equal")
	}
}

func TestString(t *testing.T) {
	v := New(3)
	v.Set(0, 1)
	v.Set(2, 1)
	if got, want := v.String(), "[n1 ⊥ n1]"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestQuickOutdegreeMatchesSlots(t *testing.T) {
	// Property: after any sequence of Set/Clear operations, the cached
	// outdegree equals the number of occupied slots.
	f := func(ops []uint16, seed int64) bool {
		v := New(8)
		for _, op := range ops {
			slot := int(op % 8)
			if op%3 == 0 {
				v.Clear(slot)
			} else {
				v.Set(slot, peer.ID(op%5))
			}
		}
		return v.CheckInvariants() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickIDsLengthIsOutdegree(t *testing.T) {
	f := func(ops []uint16) bool {
		v := New(10)
		for _, op := range ops {
			v.Set(int(op%10), peer.ID(op%7))
		}
		return len(v.IDs()) == v.Outdegree() &&
			len(slotsWhere(v, true))+v.Outdegree() == v.Size()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
