package view

import (
	"testing"

	"sendforget/internal/peer"
	"sendforget/internal/rng"
)

// The fused view ops (single-draw pair selection, bitmask slot location,
// combined clear/fill) exist so the protocol steps never allocate. They
// must remain behaviorally interchangeable with the scalar reference ops
// below, which spell each selection out the slow, obvious way: identical
// state transitions where the op is deterministic, and matching slot
// distributions where it is random. These tests pin both halves across the
// occupancy edge cases — empty view, full view, single occupied/empty slot
// — and across the bitmask (s <= 64) and scan (s > 64) implementations.

// slotsWhere lists the empty (or the occupied) slot indices in ascending
// order.
func slotsWhere(v *View, empty bool) []int {
	var out []int
	for i := 0; i < v.Size(); i++ {
		if v.Slot(i).IsNil() == empty {
			out = append(out, i)
		}
	}
	return out
}

// scalarEmptySlots is the reference for the fused empty-slot selectors: k
// distinct uniformly chosen empty slots through rng.Choose.
func scalarEmptySlots(v *View, r *rng.RNG, k int) ([]int, bool) {
	empty := slotsWhere(v, true)
	if len(empty) < k {
		return nil, false
	}
	out := make([]int, k)
	for idx, p := range r.Choose(len(empty), k) {
		out[idx] = empty[p]
	}
	return out, true
}

// occupancyCases builds views covering the edge occupancies for one size.
func occupancyCases(s int) map[string]*View {
	cases := map[string]*View{
		"empty": New(s),
	}
	full := New(s)
	for i := 0; i < s; i++ {
		full.Set(i, peer.ID(i+1))
	}
	cases["full"] = full
	single := New(s)
	single.Set(s/2, peer.ID(7))
	cases["single-occupied"] = single
	almostFull := full.Clone()
	almostFull.Clear(s / 3)
	cases["single-empty"] = almostFull
	half := New(s)
	for i := 0; i < s; i += 2 {
		half.Set(i, peer.ID(i+1))
	}
	cases["half"] = half
	return cases
}

// 63, 64 and 65 sit at the mask's edge; 65, 70 and 129 run the scan.
var fusedSizes = []int{2, 8, 63, 64, 65, 70, 129}

// TestMaskAtShiftBoundary runs every op that writes the occupancy mask at
// slots 63, 64 and 65 of a 70-slot view: the last slot the mask covers and
// the first two it does not. The ops test no slot against 64 — a Go shift of
// a uint64 by 64 or more is 0 — so after each call the mask must still hold
// exactly the occupied slots among the first 64.
func TestMaskAtShiftBoundary(t *testing.T) {
	const s = 70
	full := func() *View {
		v := New(s)
		for i := 0; i < s; i++ {
			v.Set(i, peer.ID(i+1))
		}
		return v
	}
	ops := []struct {
		name string
		do   func(i int) *View
	}{
		{"Set", func(i int) *View { v := New(s); v.Set(i, 42); return v }},
		{"Set Nil", func(i int) *View { v := full(); v.Set(i, peer.Nil); return v }},
		{"Clear", func(i int) *View { v := full(); v.Clear(i); return v }},
		{"ClearOccupiedPair", func(i int) *View { v := full(); v.ClearOccupiedPair(i, 0); return v }},
		{"FillEmptyPair", func(i int) *View { v := New(s); v.FillEmptyPair(i, 1, 42, 43); return v }},
		{"FillEmptyPair Nil", func(i int) *View { v := New(s); v.FillEmptyPair(1, i, 42, peer.Nil); return v }},
		{"Wrap", func(i int) *View {
			slots := make([]peer.ID, s)
			for j := range slots {
				slots[j] = peer.Nil
			}
			slots[i], slots[2] = 42, 43
			v := Wrap(slots)
			return &v
		}},
	}
	for _, op := range ops {
		for _, i := range []int{63, 64, 65} {
			v := op.do(i)
			if err := v.CheckInvariants(); err != nil {
				t.Errorf("%s at slot %d: %v", op.name, i, err)
			}
			var want uint64
			for j := 0; j < 64; j++ {
				if !v.slots[j].IsNil() {
					want |= 1 << uint(j)
				}
			}
			if v.occ != want {
				t.Errorf("%s at slot %d: mask %064b, want the low 64 slots %064b", op.name, i, v.occ, want)
			}
		}
	}
}

// TestClearOccupiedPairMatchesSequentialClears: for every ordered pair of
// occupied slots, the fused clear must leave exactly the state two Clear
// calls leave.
func TestClearOccupiedPairMatchesSequentialClears(t *testing.T) {
	for _, s := range fusedSizes {
		for name, base := range occupancyCases(s) {
			occ := slotsWhere(base, false)
			for _, i := range occ {
				for _, j := range occ {
					if i == j {
						continue
					}
					fused := base.Clone()
					fused.ClearOccupiedPair(i, j)
					scalar := base.Clone()
					scalar.Clear(i)
					scalar.Clear(j)
					if !fused.Equal(scalar) || fused.Outdegree() != scalar.Outdegree() {
						t.Fatalf("s=%d %s: ClearOccupiedPair(%d,%d) = %v, scalar clears = %v", s, name, i, j, fused, scalar)
					}
					if err := fused.CheckInvariants(); err != nil {
						t.Fatalf("s=%d %s: after ClearOccupiedPair(%d,%d): %v", s, name, i, j, err)
					}
				}
			}
		}
	}
}

// TestFillEmptyPairMatchesSequentialSets: for every ordered pair of empty
// slots, and with either id Nil or not, the fused fill must leave exactly the
// state two Set calls leave.
func TestFillEmptyPairMatchesSequentialSets(t *testing.T) {
	ids := [][2]peer.ID{{101, 202}, {peer.Nil, 202}, {101, peer.Nil}, {peer.Nil, peer.Nil}}
	for _, s := range fusedSizes {
		for name, base := range occupancyCases(s) {
			empty := slotsWhere(base, true)
			for _, a := range empty {
				for _, b := range empty {
					if a == b {
						continue
					}
					for _, id := range ids {
						fused := base.Clone()
						fused.FillEmptyPair(a, b, id[0], id[1])
						scalar := base.Clone()
						scalar.Set(a, id[0])
						scalar.Set(b, id[1])
						if !fused.Equal(scalar) || fused.Outdegree() != scalar.Outdegree() {
							t.Fatalf("s=%d %s: FillEmptyPair(%d,%d,%v) = %v, scalar sets = %v", s, name, a, b, id, fused, scalar)
						}
						if err := fused.CheckInvariants(); err != nil {
							t.Fatalf("s=%d %s: after FillEmptyPair(%d,%d,%v): %v", s, name, a, b, id, err)
						}
					}
				}
			}
		}
	}
}

// checkUniform asserts that counts is consistent with a uniform draw: every
// cell within 20% of the mean (trials are sized so a correct sampler passes
// with huge margin while a biased or broken one fails deterministically).
func checkUniform(t *testing.T, what string, counts map[[2]int]int, cells, trials int) {
	t.Helper()
	if len(counts) != cells {
		t.Fatalf("%s: hit %d distinct outcomes, want %d", what, len(counts), cells)
	}
	mean := float64(trials) / float64(cells)
	for k, c := range counts {
		if d := float64(c)/mean - 1; d > 0.2 || d < -0.2 {
			t.Errorf("%s: outcome %v frequency off by %.0f%% (count %d, mean %.0f)", what, k, d*100, c, mean)
		}
	}
}

// TestRandomPairFastMatchesRandomPairDistribution: both pair selectors must
// be uniform over ordered distinct slot pairs (the scalar rng.Pair is the
// Figure 5.1 reference; the fast one trades the draw mapping for a single
// 64-bit draw).
func TestRandomPairFastMatchesRandomPairDistribution(t *testing.T) {
	const trials = 200000
	for _, s := range []int{2, 5, 8} {
		v := New(s)
		cells := s * (s - 1)
		scalar := map[[2]int]int{}
		fast := map[[2]int]int{}
		r1, r2 := rng.New(1001), rng.New(2002)
		for n := 0; n < trials; n++ {
			i, j := r1.Pair(s)
			scalar[[2]int{i, j}]++
			i, j = v.RandomPairFast(r2)
			fast[[2]int{i, j}]++
		}
		checkUniform(t, "rng.Pair", scalar, cells, trials)
		checkUniform(t, "RandomPairFast", fast, cells, trials)
	}
}

// TestRandomEmptyPairMatchesScalarDistribution: the fused empty-pair draw
// must hit exactly the ordered distinct empty pairs, uniformly — the same
// support and distribution as scalarEmptySlots(r, 2).
func TestRandomEmptyPairMatchesScalarDistribution(t *testing.T) {
	const trials = 120000
	for _, s := range []int{8, 70} {
		for name, base := range occupancyCases(s) {
			e := s - base.Outdegree()
			if e < 2 || e > 6 {
				continue // keep the cell count small enough to sample
			}
			cells := e * (e - 1)
			scalar := map[[2]int]int{}
			fused := map[[2]int]int{}
			r1, r2 := rng.New(31), rng.New(41)
			for n := 0; n < trials; n++ {
				slots, ok := scalarEmptySlots(base, r1, 2)
				if !ok {
					t.Fatalf("s=%d %s: scalarEmptySlots failed with %d empties", s, name, e)
				}
				scalar[[2]int{slots[0], slots[1]}]++
				a, b, ok := base.RandomEmptyPair(r2)
				if !ok {
					t.Fatalf("s=%d %s: RandomEmptyPair failed with %d empties", s, name, e)
				}
				fused[[2]int{a, b}]++
			}
			checkUniform(t, "scalarEmptySlots(2)", scalar, cells, trials)
			checkUniform(t, "RandomEmptyPair", fused, cells, trials)
		}
	}
}

// TestRandomSingleSlotSelectors covers the k=1 forms: RandomEmptySlot vs
// scalarEmptySlots(r, 1) and RandomOccupiedSlot vs indexing the occupied
// slots, on the same support with the same uniform law.
func TestRandomSingleSlotSelectors(t *testing.T) {
	const trials = 60000
	for _, s := range []int{8, 70} {
		for name, base := range occupancyCases(s) {
			empty, occ := slotsWhere(base, true), slotsWhere(base, false)
			r1, r2 := rng.New(7), rng.New(11)
			if len(empty) > 0 && len(empty) <= 6 {
				scalar, fused := map[[2]int]int{}, map[[2]int]int{}
				for n := 0; n < trials; n++ {
					slots, ok := scalarEmptySlots(base, r1, 1)
					if !ok {
						t.Fatalf("s=%d %s: scalarEmptySlots(1) failed", s, name)
					}
					scalar[[2]int{slots[0]}]++
					i, ok := base.RandomEmptySlot(r2)
					if !ok {
						t.Fatalf("s=%d %s: RandomEmptySlot failed", s, name)
					}
					fused[[2]int{i}]++
				}
				checkUniform(t, "scalarEmptySlots(1)", scalar, len(empty), trials)
				checkUniform(t, "RandomEmptySlot", fused, len(empty), trials)
			}
			if len(occ) > 0 && len(occ) <= 6 {
				scalar, fused := map[[2]int]int{}, map[[2]int]int{}
				for n := 0; n < trials; n++ {
					scalar[[2]int{occ[r1.Intn(len(occ))]}]++
					i, ok := base.RandomOccupiedSlot(r2)
					if !ok {
						t.Fatalf("s=%d %s: RandomOccupiedSlot failed", s, name)
					}
					fused[[2]int{i}]++
				}
				checkUniform(t, "scalar occupied pick", scalar, len(occ), trials)
				checkUniform(t, "RandomOccupiedSlot", fused, len(occ), trials)
			}
		}
	}
}

// TestRandomOccupiedPairMatchesChooseDistribution: shuffle's fused
// swap-segment selection must match the scalar Choose-over-occupied-slots
// reference — uniform over ordered distinct occupied pairs.
func TestRandomOccupiedPairMatchesChooseDistribution(t *testing.T) {
	const trials = 120000
	for _, s := range []int{8, 70} {
		for name, base := range occupancyCases(s) {
			occ := slotsWhere(base, false)
			if len(occ) < 2 || len(occ) > 6 {
				continue
			}
			cells := len(occ) * (len(occ) - 1)
			scalar, fused := map[[2]int]int{}, map[[2]int]int{}
			r1, r2 := rng.New(13), rng.New(17)
			for n := 0; n < trials; n++ {
				pick := r1.Choose(len(occ), 2)
				scalar[[2]int{occ[pick[0]], occ[pick[1]]}]++
				i, j, ok := base.RandomOccupiedPair(r2)
				if !ok {
					t.Fatalf("s=%d %s: RandomOccupiedPair failed with %d occupied", s, name, len(occ))
				}
				fused[[2]int{i, j}]++
			}
			checkUniform(t, "Choose over occupied", scalar, cells, trials)
			checkUniform(t, "RandomOccupiedPair", fused, cells, trials)
		}
	}
}

// TestReplaceRandomOccupiedMatchesScalarSequence: the fused pointer flip
// must induce the same distribution over (detached id, resulting view) as
// the scalar sequence it fuses: pick an occupied slot, Clear it, pick an
// empty slot, Set it.
func TestReplaceRandomOccupiedMatchesScalarSequence(t *testing.T) {
	const trials = 120000
	base := New(6)
	base.Set(0, peer.ID(1))
	base.Set(2, peer.ID(2))
	base.Set(5, peer.ID(3))
	const w = peer.ID(99)
	scalar, fused := map[string]int{}, map[string]int{}
	r1, r2 := rng.New(19), rng.New(23)
	for n := 0; n < trials; n++ {
		v := base.Clone()
		occ := slotsWhere(v, false)
		slot := occ[r1.Intn(len(occ))]
		z := v.Slot(slot)
		v.Clear(slot)
		stores, ok := scalarEmptySlots(v, r1, 1)
		if !ok {
			t.Fatal("scalar store failed")
		}
		v.Set(stores[0], w)
		scalar[z.String()+"|"+v.String()]++

		v = base.Clone()
		z, ok = v.ReplaceRandomOccupied(r2, w)
		if !ok {
			t.Fatal("ReplaceRandomOccupied failed on non-empty view")
		}
		fused[z.String()+"|"+v.String()]++
		if err := v.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	if len(scalar) != len(fused) {
		t.Fatalf("support differs: scalar %d outcomes, fused %d", len(scalar), len(fused))
	}
	for k, sc := range scalar {
		fc, ok := fused[k]
		if !ok {
			t.Fatalf("outcome %q reached by scalar sequence but never by fused op", k)
		}
		if d := float64(fc)/float64(sc) - 1; d > 0.2 || d < -0.2 {
			t.Errorf("outcome %q frequency differs by %.0f%% (scalar %d, fused %d)", k, d*100, sc, fc)
		}
	}
}

// TestFusedSelectorsEdgeOccupancy pins the failure returns: selectors over
// empty support must return ok = false and leave the view untouched.
func TestFusedSelectorsEdgeOccupancy(t *testing.T) {
	r := rng.New(3)
	for _, s := range fusedSizes {
		empty := New(s)
		if _, ok := empty.RandomOccupiedSlot(r); ok {
			t.Errorf("s=%d: RandomOccupiedSlot succeeded on an empty view", s)
		}
		if _, _, ok := empty.RandomOccupiedPair(r); ok {
			t.Errorf("s=%d: RandomOccupiedPair succeeded on an empty view", s)
		}
		if z, ok := empty.ReplaceRandomOccupied(r, peer.ID(9)); ok || z != peer.Nil {
			t.Errorf("s=%d: ReplaceRandomOccupied replaced in an empty view", s)
		}
		if empty.Outdegree() != 0 {
			t.Errorf("s=%d: failed ReplaceRandomOccupied mutated the view", s)
		}

		full := New(s)
		for i := 0; i < s; i++ {
			full.Set(i, peer.ID(i+1))
		}
		if _, ok := full.RandomEmptySlot(r); ok {
			t.Errorf("s=%d: RandomEmptySlot succeeded on a full view", s)
		}
		if _, _, ok := full.RandomEmptyPair(r); ok {
			t.Errorf("s=%d: RandomEmptyPair succeeded on a full view", s)
		}

		single := New(s)
		single.Set(0, peer.ID(5))
		if i, ok := single.RandomOccupiedSlot(r); !ok || i != 0 {
			t.Errorf("s=%d: RandomOccupiedSlot on single-occupied = (%d, %v), want (0, true)", s, i, ok)
		}
		if _, _, ok := single.RandomOccupiedPair(r); ok {
			t.Errorf("s=%d: RandomOccupiedPair succeeded with one occupied slot", s)
		}
		if z, ok := single.ReplaceRandomOccupied(r, peer.ID(6)); !ok || z != peer.ID(5) {
			t.Errorf("s=%d: ReplaceRandomOccupied on single-occupied = (%v, %v), want (n5, true)", s, z, ok)
		}
		if single.Outdegree() != 1 || !single.Contains(peer.ID(6)) || single.Contains(peer.ID(5)) {
			t.Errorf("s=%d: ReplaceRandomOccupied left wrong state %v", s, single)
		}
	}
}
