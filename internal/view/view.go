// Package view implements the local view u.lv[1..s] of Section 2 of the
// paper: a fixed-size array of node ids in which entries may be empty (the
// bottom symbol) and duplicates are permitted (they are accounted for later
// as dependencies).
//
// The view exposes exactly the primitive steps the S&F protocol of
// Figure 5.1 is built from: selecting a uniform random ordered pair of
// entries, clearing entries, and filling uniformly chosen empty entries.
// Higher-level invariants (even outdegree, the dL lower bound) belong to the
// protocol, not the container, and are asserted there.
package view

import (
	"fmt"
	"math/bits"
	"strings"

	"sendforget/internal/peer"
	"sendforget/internal/rng"
)

// View is a local membership view: s slots each holding a node id or
// peer.Nil. The zero value is unusable; construct with New.
type View struct {
	slots []peer.ID
	out   int // cached count of non-Nil slots (the outdegree d(u))
	// occ is a bitmask of the occupied slots among the first 64 (bit i set
	// iff slots[i] != peer.Nil). For the view sizes the paper works with
	// (s <= 64) it covers the whole view, and the receive steps select
	// random empty slots with a few bit operations instead of a
	// slot scan. For larger views it is maintained for the covered prefix
	// but never consulted.
	occ uint64
}

// New returns an empty view with s slots. It panics if s <= 0.
func New(s int) *View {
	if s <= 0 {
		panic("view: New called with non-positive size")
	}
	v := &View{slots: make([]peer.ID, s)}
	for i := range v.slots {
		v.slots[i] = peer.Nil
	}
	return v
}

// Wrap returns a View backed by the given slot slice without copying it: the
// view and the caller share the array. The sharded cluster stores all node
// views in one flat id array and wraps per-node windows of it, so view state
// stays contiguous in memory and snapshot code can copy it in bulk. The
// outdegree cache is computed once here; all mutation must go through the
// View afterwards. It panics if slots is empty.
func Wrap(slots []peer.ID) View {
	if len(slots) == 0 {
		panic("view: Wrap called with no slots")
	}
	out := 0
	var occ uint64
	for i, id := range slots {
		if id != peer.Nil {
			out++
			if i < 64 {
				occ |= 1 << uint(i)
			}
		}
	}
	return View{slots: slots, out: out, occ: occ}
}

// idsPerLine is the number of ids on one 64-byte cache line.
const idsPerLine = 64 / 4

// Touch reads one slot on every cache line the slot array lies on — every
// idsPerLine-th slot and the last, which covers the lines of a window that
// starts anywhere an id may — and returns their sum; a zero View reads
// nothing. It changes nothing and its result means nothing: a driver that
// knows which views a batch of receive steps is about to write calls it on
// all of them first, so that their cache misses overlap instead of each
// waiting inside its own step, and hands the sum to something the compiler
// cannot see through so that the loads are kept.
//
//vet:hotpath
func (v *View) Touch() (sum peer.ID) {
	for i := 0; i < len(v.slots); i += idsPerLine {
		sum += v.slots[i]
	}
	if n := len(v.slots); n > 0 {
		sum += v.slots[n-1]
	}
	return sum
}

// Size returns the number of slots s (Property M1's view size).
func (v *View) Size() int { return len(v.slots) }

// Outdegree returns d(u): the number of non-empty entries.
func (v *View) Outdegree() int { return v.out }

// Full reports whether the view has no empty entries (d(u) = s).
func (v *View) Full() bool { return v.out == len(v.slots) }

// Slot returns the id stored at index i (peer.Nil if empty).
func (v *View) Slot(i int) peer.ID { return v.slots[i] }

// Set stores id at index i, overwriting any previous value. Storing peer.Nil
// is equivalent to Clear.
func (v *View) Set(i int, id peer.ID) {
	if v.slots[i] != peer.Nil {
		v.out--
	}
	v.slots[i] = id
	if id != peer.Nil {
		v.out++
		if i < 64 {
			v.occ |= 1 << uint(i)
		}
	} else if i < 64 {
		v.occ &^= 1 << uint(i)
	}
}

// Clear empties slot i. Clearing an already-empty slot is a no-op.
func (v *View) Clear(i int) { v.Set(i, peer.Nil) }

// RandomPairFast selects an ordered pair of distinct slot indices uniformly
// at random — Figure 5.1 line 2 — with one 64-bit draw through rng.FastPair
// (its lane bias is documented there and negligible). The slots may be
// empty; the S&F initiate step turns an empty selection into a self-loop
// transformation.
//
//vet:hotpath
func (v *View) RandomPairFast(r *rng.RNG) (i, j int) {
	return r.FastPair(len(v.slots))
}

// RandomEmptyPair returns an ordered pair of distinct uniformly chosen empty
// slot indices without allocating — the receive step of Figure 5.1 (lines
// 3-4). The pair is uniform over ordered distinct empty slots up to
// rng.FastPair's negligible lane bias, from one draw. It returns ok = false
// when fewer than two slots are empty.
//
//vet:hotpath
func (v *View) RandomEmptyPair(r *rng.RNG) (a, b int, ok bool) {
	s := len(v.slots)
	e := s - v.out
	if e < 2 {
		return 0, 0, false
	}
	// Draw ordinal positions among the empty slots (ordered distinct pair),
	// then locate both.
	x, y := r.FastPair(e)
	if s <= 64 {
		// The occupancy mask covers the whole view: select the x-th and
		// y-th zero bits instead of scanning slots.
		mask := ^uint64(0)
		if s < 64 {
			mask = 1<<uint(s) - 1
		}
		zeros := ^v.occ & mask
		return nthSetBit(zeros, x), nthSetBit(zeros, y), true
	}
	a, b = -1, -1
	k := 0
	for i, id := range v.slots {
		if id != peer.Nil {
			continue
		}
		if k == x {
			a = i
		}
		if k == y {
			b = i
		}
		k++
		if a >= 0 && b >= 0 {
			break
		}
	}
	return a, b, true
}

// FillEmptyPair stores two non-Nil ids at the distinct empty slots a and b —
// the receive step's two Set calls fused so the occupancy bookkeeping runs
// once without re-reading the slots. Callers guarantee a != b and that both
// slots are empty (RandomEmptyPair's contract); Nil ids fall back to Set,
// which handles them like Clear.
//
//vet:hotpath
func (v *View) FillEmptyPair(a, b int, ida, idb peer.ID) {
	if ida == peer.Nil || idb == peer.Nil {
		v.Set(a, ida)
		v.Set(b, idb)
		return
	}
	v.slots[a] = ida
	v.slots[b] = idb
	v.out += 2
	var m uint64
	if a < 64 {
		m |= 1 << uint(a)
	}
	if b < 64 {
		m |= 1 << uint(b)
	}
	v.occ |= m
}

// ClearOccupiedPair empties the distinct slots i and j — the initiate step's
// two Clear calls fused. Callers guarantee i != j and that both slots are
// occupied (the initiate step just read both ids and found them non-Nil).
//
//vet:hotpath
func (v *View) ClearOccupiedPair(i, j int) {
	v.slots[i] = peer.Nil
	v.slots[j] = peer.Nil
	v.out -= 2
	var m uint64
	if i < 64 {
		m |= 1 << uint(i)
	}
	if j < 64 {
		m |= 1 << uint(j)
	}
	v.occ &^= m
}

// RandomEmptySlot returns one uniformly chosen empty slot index without
// allocating, from one Intn draw — used by receive steps that store ids one
// at a time. It returns ok = false when the view is full.
//
//vet:hotpath
func (v *View) RandomEmptySlot(r *rng.RNG) (int, bool) {
	s := len(v.slots)
	e := s - v.out
	if e == 0 {
		return 0, false
	}
	x := r.Intn(e)
	if s <= 64 {
		mask := ^uint64(0)
		if s < 64 {
			mask = 1<<uint(s) - 1
		}
		return nthSetBit(^v.occ&mask, x), true
	}
	k := 0
	for i, id := range v.slots {
		if id != peer.Nil {
			continue
		}
		if k == x {
			return i, true
		}
		k++
	}
	return 0, false // unreachable: e > 0
}

// RandomOccupiedSlot returns one uniformly chosen occupied slot index
// without allocating, from one Intn draw — used by receive steps (flipper's
// pointer flip, shuffle's single-entry swap). It returns ok = false when
// the view is empty.
//
//vet:hotpath
func (v *View) RandomOccupiedSlot(r *rng.RNG) (int, bool) {
	if v.out == 0 {
		return 0, false
	}
	x := r.Intn(v.out)
	s := len(v.slots)
	if s <= 64 {
		return nthSetBit(v.occ, x), true
	}
	k := 0
	for i, id := range v.slots {
		if id == peer.Nil {
			continue
		}
		if k == x {
			return i, true
		}
		k++
	}
	return 0, false // unreachable: out > 0
}

// RandomOccupiedPair returns an ordered pair of distinct uniformly chosen
// occupied slot indices without allocating — shuffle's swap-segment
// selection (pick the entries to offer) fused the way RandomEmptyPair fuses
// the receive fill. The pair distribution is uniform over ordered distinct
// occupied slots up to rng.FastPair's negligible lane bias. It returns
// ok = false when fewer than two slots are occupied.
//
//vet:hotpath
func (v *View) RandomOccupiedPair(r *rng.RNG) (a, b int, ok bool) {
	if v.out < 2 {
		return 0, 0, false
	}
	x, y := r.FastPair(v.out)
	s := len(v.slots)
	if s <= 64 {
		return nthSetBit(v.occ, x), nthSetBit(v.occ, y), true
	}
	a, b = -1, -1
	k := 0
	for i, id := range v.slots {
		if id == peer.Nil {
			continue
		}
		if k == x {
			a = i
		}
		if k == y {
			b = i
		}
		k++
		if a >= 0 && b >= 0 {
			break
		}
	}
	return a, b, true
}

// ReplaceRandomOccupied is flipper's pointer flip fused into one view op:
// detach a uniformly chosen occupied entry z, then store w into a uniformly
// chosen empty slot of the resulting view (which always has at least the
// just-cleared slot empty). It returns the detached id and ok = true, or
// ok = false when the view is empty and nothing was replaced.
//
//vet:hotpath
func (v *View) ReplaceRandomOccupied(r *rng.RNG, w peer.ID) (z peer.ID, ok bool) {
	i, ok := v.RandomOccupiedSlot(r)
	if !ok {
		return peer.Nil, false
	}
	z = v.slots[i]
	v.Clear(i)
	j, _ := v.RandomEmptySlot(r) // cannot fail: slot i is now empty
	v.Set(j, w)
	return z, true
}

// nthSetBit returns the index of the (k+1)-th set bit of m (k counted from
// 0, bits from the least significant). The caller guarantees m has more than
// k bits set.
//
// It is a search by popcount halving with no data-dependent branch: the low
// 32 bits hold either more than k set bits, and the search goes on in them,
// or c <= k of them, and it goes on in the high 32 bits for bit k-c; the same
// on 16 and on 8 bits, and selectInByte answers for the byte that is left.
// Clearing the lowest set bit k times ("m &= m - 1", the reference kept in
// the tests) does the same in a loop whose trip count is uniform in the
// number of candidate slots — that is what the callers draw — so its exit
// mispredicts on most calls: the receive step selects twice per message.
func nthSetBit(m uint64, k int) int {
	c := bits.OnesCount32(uint32(m))
	up := (c - 1 - k) >> (bits.UintSize - 1) // all ones when the bit lies in the upper half
	k -= c & up
	pos := 32 & up
	m >>= uint(32 & up)

	c = bits.OnesCount16(uint16(m))
	up = (c - 1 - k) >> (bits.UintSize - 1)
	k -= c & up
	pos += 16 & up
	m >>= uint(16 & up)

	c = bits.OnesCount8(uint8(m))
	up = (c - 1 - k) >> (bits.UintSize - 1)
	k -= c & up
	pos += 8 & up
	m >>= uint(8 & up)

	return pos + int(selectInByte[uint8(m)][k&7])
}

// selectInByte[b][k] is the index of the (k+1)-th set bit of the byte b, for
// every k below b's popcount (the other entries are never read): 2 KB, filled
// at init.
var selectInByte [256][8]uint8

func init() {
	for b := range selectInByte {
		k := 0
		for i := 0; i < 8; i++ {
			if b>>i&1 != 0 {
				selectInByte[b][k] = uint8(i)
				k++
			}
		}
	}
}

// IDs returns the multiset of non-empty entries in slot order. The returned
// slice is freshly allocated.
func (v *View) IDs() []peer.ID {
	out := make([]peer.ID, 0, v.out)
	for _, id := range v.slots {
		if id != peer.Nil {
			out = append(out, id)
		}
	}
	return out
}

// Contains reports whether id appears in some entry.
func (v *View) Contains(id peer.ID) bool { return v.Multiplicity(id) > 0 }

// Multiplicity returns the number of entries holding id (views are
// multisets; duplicates count as dependencies in the analysis).
func (v *View) Multiplicity(id peer.ID) int {
	if id == peer.Nil {
		return 0
	}
	m := 0
	for _, e := range v.slots {
		if e == id {
			m++
		}
	}
	return m
}

// Clone returns a deep copy of the view.
func (v *View) Clone() *View {
	c := &View{slots: make([]peer.ID, len(v.slots)), out: v.out, occ: v.occ}
	copy(c.slots, v.slots)
	return c
}

// Equal reports whether two views have identical slot contents (including
// slot positions, not just multisets).
func (v *View) Equal(o *View) bool {
	if len(v.slots) != len(o.slots) {
		return false
	}
	for i := range v.slots {
		if v.slots[i] != o.slots[i] {
			return false
		}
	}
	return true
}

// String renders the view compactly, e.g. "[n1 ⊥ n3 n3]".
func (v *View) String() string {
	parts := make([]string, len(v.slots))
	for i, id := range v.slots {
		parts[i] = id.String()
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// CheckInvariants verifies internal consistency (cached outdegree and
// occupancy mask match the slot contents). It returns an error rather than
// panicking so tests can assert on it; protocol code calls it only under
// test builds.
func (v *View) CheckInvariants() error {
	n := 0
	var occ uint64
	for i, id := range v.slots {
		if id != peer.Nil {
			n++
			if i < 64 {
				occ |= 1 << uint(i)
			}
		}
	}
	if n != v.out {
		return fmt.Errorf("view: cached outdegree %d != actual %d", v.out, n)
	}
	if occ != v.occ {
		return fmt.Errorf("view: cached occupancy %064b != actual %064b", v.occ, occ)
	}
	return nil
}
