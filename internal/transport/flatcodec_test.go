package transport

import (
	"bytes"
	"errors"
	"testing"

	"sendforget/internal/peer"
	"sendforget/internal/protocol"
)

// TestFlatCodecMatchesMarshal proves the flat codec speaks byte-identical
// version-1 wire format: AppendFlat's output equals Marshal's for every id
// arity (inline 0/1/2 and arena >2), and UnmarshalFlatInto round-trips what
// Unmarshal decodes.
func TestFlatCodecMatchesMarshal(t *testing.T) {
	cases := [][]peer.ID{
		nil,
		{7},
		{3, 9},
		{1, 2, 3, 4, 5}, // arena path
	}
	for _, ids := range cases {
		var src protocol.Outbox
		src.Append(42, 6, protocol.Kind(2), true, ids...)
		m := &src.Msgs[0]

		want, err := Marshal(protocol.Message{Kind: protocol.Kind(2), From: 6, IDs: ids, Dup: true})
		if err != nil {
			t.Fatalf("Marshal(%v): %v", ids, err)
		}
		got, err := AppendFlat(nil, &src, m)
		if err != nil {
			t.Fatalf("AppendFlat(%v): %v", ids, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("AppendFlat(%v) = %x, Marshal = %x", ids, got, want)
		}

		var dst protocol.Outbox
		if err := UnmarshalFlatInto(got, 42, &dst); err != nil {
			t.Fatalf("UnmarshalFlatInto(%v): %v", ids, err)
		}
		if dst.Len() != 1 {
			t.Fatalf("decoded %d messages, want 1", dst.Len())
		}
		d := &dst.Msgs[0]
		if d.To != 42 || d.From != 6 || d.Kind != protocol.Kind(2) || !d.Dup {
			t.Errorf("decoded header %+v mismatch", d)
		}
		gotIDs := dst.MsgIDs(d)
		if len(gotIDs) != len(ids) {
			t.Fatalf("decoded %d ids, want %d", len(gotIDs), len(ids))
		}
		for i := range ids {
			if gotIDs[i] != ids[i] {
				t.Errorf("id[%d] = %d, want %d", i, gotIDs[i], ids[i])
			}
		}
	}
}

// TestFlatCodecAppends verifies AppendFlat extends dst in place (coalescing
// several messages into one write buffer) and that decode accumulates into
// the same outbox.
func TestFlatCodecAppends(t *testing.T) {
	var src protocol.Outbox
	src.Append2(1, 2, protocol.Kind(1), false, 10, 11)
	src.Append1(3, 4, protocol.Kind(3), true, 12)

	var buf []byte
	var offs []int
	for i := range src.Msgs {
		var err error
		offs = append(offs, len(buf))
		if buf, err = AppendFlat(buf, &src, &src.Msgs[i]); err != nil {
			t.Fatal(err)
		}
	}
	offs = append(offs, len(buf))

	var dst protocol.Outbox
	for i := range src.Msgs {
		if err := UnmarshalFlatInto(buf[offs[i]:offs[i+1]], src.Msgs[i].To, &dst); err != nil {
			t.Fatal(err)
		}
	}
	if dst.Len() != 2 {
		t.Fatalf("decoded %d messages, want 2", dst.Len())
	}
	if dst.Msgs[0].To != 1 || dst.Msgs[1].To != 3 {
		t.Errorf("decoded To = %d, %d; want 1, 3", dst.Msgs[0].To, dst.Msgs[1].To)
	}
}

// TestFlatCodecErrors exercises the sentinel error paths.
func TestFlatCodecErrors(t *testing.T) {
	var out protocol.Outbox
	if err := UnmarshalFlatInto(nil, 0, &out); !errors.Is(err, ErrFlatTruncated) {
		t.Errorf("short buf: %v, want ErrFlatTruncated", err)
	}
	good, err := Marshal(protocol.Message{Kind: 1, From: 2, IDs: []peer.ID{3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	bad := bytes.Clone(good)
	bad[0] = 0xff
	if err := UnmarshalFlatInto(bad, 0, &out); !errors.Is(err, ErrFlatBadHeader) {
		t.Errorf("bad magic: %v, want ErrFlatBadHeader", err)
	}
	bad = bytes.Clone(good)
	bad[2] = wireVersion2 // flat decoder is version-1 only
	if err := UnmarshalFlatInto(bad, 0, &out); !errors.Is(err, ErrFlatBadHeader) {
		t.Errorf("version 2: %v, want ErrFlatBadHeader", err)
	}
	bad = bytes.Clone(good)
	bad[9] = 200 // claims more ids than the payload carries
	if err := UnmarshalFlatInto(bad, 0, &out); !errors.Is(err, ErrFlatTruncated) {
		t.Errorf("bad count: %v, want ErrFlatTruncated", err)
	}
	if out.Len() != 0 {
		t.Errorf("failed decodes appended %d messages", out.Len())
	}
}

// TestFlatCodecZeroAlloc is the dynamic cross-check of what hotalloc proves
// statically: a warmed-up encode/decode round trip performs zero
// allocations.
func TestFlatCodecZeroAlloc(t *testing.T) {
	var src protocol.Outbox
	src.Append(9, 1, protocol.Kind(1), false, 2, 3, 4, 5) // arena path
	src.Append2(8, 1, protocol.Kind(1), false, 2, 3)      // inline path
	buf := make([]byte, 0, 256)
	var dst protocol.Outbox
	allocs := testing.AllocsPerRun(100, func() {
		buf = buf[:0]
		dst.Reset()
		for i := range src.Msgs {
			var err error
			if buf, err = AppendFlat(buf, &src, &src.Msgs[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := UnmarshalFlatInto(buf, 9, &dst); err == nil {
			t.Fatal("concatenated buffer should not decode as one datagram")
		}
		if err := UnmarshalFlatInto(buf[:headerLen+16], 9, &dst); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("flat codec round trip allocates %v times per run, want 0", allocs)
	}
}

// TestUnmarshalFlatIntoArenaOffset decodes payloads of 3, 8 and 255 ids, with
// inline ones between them, into one outbox: each arena payload's offset is
// in its header's IDs[0], and MsgIDs reads every id back from there.
func TestUnmarshalFlatIntoArenaOffset(t *testing.T) {
	sizes := []int{3, 2, 8, 1, 255, 3}
	var dst protocol.Outbox
	for i, n := range sizes {
		ids := make([]peer.ID, n)
		for j := range ids {
			ids[j] = peer.ID(i<<8 | j)
		}
		buf, err := Marshal(protocol.Message{Kind: protocol.KindGossip, From: 9, IDs: ids})
		if err != nil {
			t.Fatal(err)
		}
		if err := UnmarshalFlatInto(buf, peer.ID(i), &dst); err != nil {
			t.Fatalf("payload of %d ids: %v", n, err)
		}
	}
	arena := 0
	for i, n := range sizes {
		m := &dst.Msgs[i]
		ids := dst.MsgIDs(m)
		if m.To != peer.ID(i) || int(m.IDLen) != n || len(ids) != n {
			t.Fatalf("message %d: header %+v with %d ids, want %d", i, *m, len(ids), n)
		}
		if n > 2 {
			if int(m.IDs[0]) != arena {
				t.Errorf("message %d: arena offset %d, want %d", i, m.IDs[0], arena)
			}
			arena += n
		}
		for j, id := range ids {
			if id != peer.ID(i<<8|j) {
				t.Fatalf("message %d: id %d = %d, want %d", i, j, id, i<<8|j)
			}
		}
	}
}
