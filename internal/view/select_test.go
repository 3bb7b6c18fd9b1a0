package view

import (
	"math/bits"
	"testing"

	"sendforget/internal/peer"
	"sendforget/internal/rng"
)

// nthSetBit is a branch-free search (popcount halving, then a byte table)
// that must return, for every (mask, k), the index the obvious loop returns:
// every slot a receive step picks goes through it, so one differing index
// moves every seeded run. The loop is kept here as the reference.

// nthSetBitRef clears the lowest set bit k times and reports where the next
// one is.
func nthSetBitRef(m uint64, k int) int {
	for ; k > 0; k-- {
		m &= m - 1
	}
	return bits.TrailingZeros64(m)
}

// checkSelect compares the select with the reference for every valid k of m.
func checkSelect(t *testing.T, m uint64) {
	t.Helper()
	for k := bits.OnesCount64(m) - 1; k >= 0; k-- {
		if got, want := nthSetBit(m, k), nthSetBitRef(m, k); got != want {
			t.Fatalf("nthSetBit(%#016x, %d) = %d, reference %d", m, k, got, want)
		}
	}
}

// spread16 places bit i of x at bit 4i+3: two bits of x in each byte of the
// result.
func spread16(x uint64) (m uint64) {
	for i := 0; i < 16; i++ {
		m |= (x >> i & 1) << (4*i + 3)
	}
	return m
}

// TestNthSetBitExhaustive16 runs all 2^16 masks, every valid k — in each of
// the four 16-bit lanes, so that every way through the 32- and the 16-bit
// step is taken with every byte pair below it, and spread over all eight
// bytes, so that each step is taken with bits on both sides of it.
func TestNthSetBitExhaustive16(t *testing.T) {
	for x := uint64(0); x < 1<<16; x++ {
		for shift := 0; shift < 64; shift += 16 {
			checkSelect(t, x<<shift)
		}
		checkSelect(t, spread16(x))
	}
}

// TestSelectInByteTable checks the table against its definition, entry by
// entry: entry k of byte b is where b's (k+1)-th set bit is.
func TestSelectInByteTable(t *testing.T) {
	for b := 0; b < 256; b++ {
		for k := 0; k < bits.OnesCount8(uint8(b)); k++ {
			if got, want := int(selectInByte[b][k]), nthSetBitRef(uint64(b), k); got != want {
				t.Fatalf("selectInByte[%#02x][%d] = %d, want %d", b, k, got, want)
			}
		}
	}
}

// selectEdges are the masks a random draw is unlikely to produce.
var selectEdges = []uint64{
	1, 1 << 63, 1<<63 | 1, ^uint64(0), ^uint64(0) >> 1, ^uint64(1),
	1<<40 - 1, 1<<32 - 1, ^uint64(1<<32 - 1), 1 << 31, 1 << 32,
	0x8080808080808080, 0x0101010101010101, 0xaaaaaaaaaaaaaaaa, 0x5555555555555555,
	0x00ff00ff00ff00ff, 0xff00ff00ff00ff00, 0x8000000080000000,
}

// TestNthSetBitRandomAndEdges: a million seeded 64-bit masks in three shapes
// — dense, sparse, and a third-full 40-slot view's — each at k = 0, at
// k = popcount-1 and at a drawn k; then every k of the edge masks.
func TestNthSetBitRandomAndEdges(t *testing.T) {
	n := 1_000_000
	if testing.Short() {
		n = 50_000
	}
	r := rng.New(20241003)
	for i := 0; i < n; i++ {
		m := r.Uint64()
		switch i % 3 {
		case 1:
			m &= r.Uint64() & r.Uint64() // one bit in eight
		case 2:
			m &= r.Uint64() | r.Uint64()&r.Uint64() // 5 bits in 16: ~13 of 40
			m &= 1<<40 - 1
		}
		c := bits.OnesCount64(m)
		if c == 0 {
			continue
		}
		for _, k := range [3]int{0, c - 1, r.Intn(c)} {
			if got, want := nthSetBit(m, k), nthSetBitRef(m, k); got != want {
				t.Fatalf("nthSetBit(%#016x, %d) = %d, reference %d", m, k, got, want)
			}
		}
	}
	for _, m := range selectEdges {
		checkSelect(t, m)
	}
}

// FuzzNthSetBit lets the fuzzer look for a (mask, k) where the two selects
// differ; k is reduced modulo the popcount, the select's precondition.
func FuzzNthSetBit(f *testing.F) {
	for i, m := range selectEdges {
		f.Add(m, uint8(0))
		f.Add(m, uint8(63))
		f.Add(m, uint8(7*i+3))
	}
	f.Fuzz(func(t *testing.T, m uint64, k uint8) {
		c := bits.OnesCount64(m)
		if c == 0 {
			return
		}
		kk := int(k) % c
		if got, want := nthSetBit(m, kk), nthSetBitRef(m, kk); got != want {
			t.Fatalf("nthSetBit(%#016x, %d) = %d, reference %d", m, kk, got, want)
		}
	})
}

// TestSelectorDrawSequences walks views of the bitmask sizes through 10^4
// seeded selector draws each — filling what RandomEmptyPair/RandomEmptySlot
// pick and clearing what RandomOccupiedPair/RandomOccupiedSlot pick, so the
// occupancy wanders over its whole range — and requires every draw to equal
// the one the reference gives: the same ordinal from a second stream on the
// same seed, located by the reference select in a mask rebuilt from the
// slots.
func TestSelectorDrawSequences(t *testing.T) {
	for _, s := range []int{6, 16, 40, 64} {
		v := New(s)
		for i := 0; i < s; i += 3 {
			v.Set(i, peer.ID(i+1))
		}
		r, ref := rng.New(rng.Seed(s)), rng.New(rng.Seed(s))
		mask := func(empty bool) (m uint64) {
			for _, i := range slotsWhere(v, empty) {
				m |= 1 << uint(i)
			}
			return m
		}
		for n := 0; n < 10_000; n++ {
			id := peer.ID(n + 1)
			e := s - v.Outdegree()
			// Steer towards the middle: fill when the view is less than half
			// full, clear otherwise, alternating the single and the pair form.
			switch fill, pair := e > s/2, n%2 == 0; {
			case fill && pair:
				a, b, ok := v.RandomEmptyPair(r)
				if !ok {
					t.Fatalf("s=%d draw %d: RandomEmptyPair failed with %d empty", s, n, e)
				}
				x, y := ref.FastPair(e)
				if wa, wb := nthSetBitRef(mask(true), x), nthSetBitRef(mask(true), y); a != wa || b != wb {
					t.Fatalf("s=%d draw %d: RandomEmptyPair = (%d, %d), reference (%d, %d)", s, n, a, b, wa, wb)
				}
				v.FillEmptyPair(a, b, id, id)
			case fill:
				a, ok := v.RandomEmptySlot(r)
				if !ok {
					t.Fatalf("s=%d draw %d: RandomEmptySlot failed with %d empty", s, n, e)
				}
				if want := nthSetBitRef(mask(true), ref.Intn(e)); a != want {
					t.Fatalf("s=%d draw %d: RandomEmptySlot = %d, reference %d", s, n, a, want)
				}
				v.Set(a, id)
			case pair:
				a, b, ok := v.RandomOccupiedPair(r)
				if !ok {
					t.Fatalf("s=%d draw %d: RandomOccupiedPair failed with %d occupied", s, n, s-e)
				}
				x, y := ref.FastPair(s - e)
				if wa, wb := nthSetBitRef(mask(false), x), nthSetBitRef(mask(false), y); a != wa || b != wb {
					t.Fatalf("s=%d draw %d: RandomOccupiedPair = (%d, %d), reference (%d, %d)", s, n, a, b, wa, wb)
				}
				v.ClearOccupiedPair(a, b)
			default:
				a, ok := v.RandomOccupiedSlot(r)
				if !ok {
					t.Fatalf("s=%d draw %d: RandomOccupiedSlot failed with %d occupied", s, n, s-e)
				}
				if want := nthSetBitRef(mask(false), ref.Intn(s-e)); a != want {
					t.Fatalf("s=%d draw %d: RandomOccupiedSlot = %d, reference %d", s, n, a, want)
				}
				v.Clear(a)
			}
		}
		if err := v.CheckInvariants(); err != nil {
			t.Fatalf("s=%d: %v", s, err)
		}
	}
}

// TestTouchReadsEveryLine: Touch returns the sum of every sixteenth slot and
// the last, for any size — below one line, a line exactly, the paper's 40,
// past the occupancy mask — on windows starting anywhere in a slab, and
// nothing for a zero view. It must not write.
func TestTouchReadsEveryLine(t *testing.T) {
	var zero View
	if got := zero.Touch(); got != 0 {
		t.Fatalf("zero view: Touch = %d", got)
	}
	slab := make([]peer.ID, 400)
	for i := range slab {
		slab[i] = peer.ID(3*i + 1)
	}
	for _, s := range []int{1, 6, 15, 16, 17, 32, 33, 40, 64, 70, 129} {
		for off := 0; off < 20; off++ {
			window := slab[off : off+s : off+s]
			v := Wrap(window)
			var want peer.ID
			for i := 0; i < s; i += 16 {
				want += window[i]
			}
			want += window[s-1]
			if got := v.Touch(); got != want {
				t.Fatalf("s=%d offset %d: Touch = %d, want %d", s, off, got, want)
			}
			if err := v.CheckInvariants(); err != nil {
				t.Fatalf("s=%d offset %d after Touch: %v", s, off, err)
			}
		}
	}
	for i := range slab {
		if slab[i] != peer.ID(3*i+1) {
			t.Fatalf("Touch wrote slot %d", i)
		}
	}
}

var selectSink int

// BenchmarkNthSetBit compares the select with the reference loop on the
// masks a 40-slot view a third full produces, k uniform as the callers draw
// it.
func BenchmarkNthSetBit(b *testing.B) {
	r := rng.New(1)
	masks := make([]uint64, 1<<16)
	ks := make([]int, len(masks))
	for i := range masks {
		for bits.OnesCount64(masks[i]) < 13 {
			masks[i] |= 1 << uint(r.Intn(40))
		}
		ks[i] = r.Intn(13)
	}
	b.Run("select", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			selectSink += nthSetBit(masks[i&(1<<16-1)], ks[i&(1<<16-1)])
		}
	})
	b.Run("reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			selectSink += nthSetBitRef(masks[i&(1<<16-1)], ks[i&(1<<16-1)])
		}
	})
}
