package transport

import (
	"bytes"
	"slices"
	"testing"

	"sendforget/internal/peer"
	"sendforget/internal/protocol"
)

// FuzzUnmarshal feeds arbitrary datagrams through every decoder: none may
// panic, every accepted payload must re-encode to identical bytes (the wire
// format has a unique canonical encoding), the flat codec must agree with
// the allocating one on every input — it accepts exactly the version-1
// datagrams, decodes the same message, and re-encodes the same bytes — and
// so must the UDP endpoint's in-place decode: it accepts exactly what
// UnmarshalAddressed accepts and yields the same header, ids (into a reused
// buffer) and trailer address bytes.
func FuzzUnmarshal(f *testing.F) {
	seed, err := Marshal(protocol.Message{
		Kind: protocol.KindGossip, From: 7, IDs: []peer.ID{7, 42}, Dup: true,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{0x53, 0x46, 1, 0, 0, 0, 0, 0, 0, 0})
	seed2, err := MarshalAddressed(protocol.Message{
		Kind: protocol.KindGossip, From: 1, IDs: []peer.ID{1, 2},
	}, []string{"127.0.0.1:7000", ""})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed2)
	arena, err := Marshal(protocol.Message{Kind: protocol.KindGossip, From: 3, IDs: []peer.ID{9, 8, 7, 6, 5}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(arena) // more than two ids: the flat decoder's arena path
	// Version-2 trailers that are truncated, too long, or hold a different
	// number of entries than the header has ids.
	f.Add(seed2[:len(seed2)-1])
	f.Add(append(bytes.Clone(seed2), 0))
	fewer := bytes.Clone(seed2)
	fewer[9] = 1
	f.Add(fewer)
	more, err := MarshalAddressed(protocol.Message{Kind: protocol.KindGossip, From: 1, IDs: []peer.ID{1, 2, 3}}, []string{"", "127.0.0.1:1", ""})
	if err != nil {
		f.Fatal(err)
	}
	more = append(more[:headerLen+8], more[headerLen+12:]...)
	more[9] = 2
	f.Add(more)                  // three entries after two ids
	ids := []peer.ID{-1, -2, -3} // the live decode's reused buffer, dirty
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, addrs, err := UnmarshalAddressed(data)
		live, trailer, liveErr := decode(data, ids)
		if (liveErr == nil) != (err == nil) {
			t.Fatalf("live decode: %v, UnmarshalAddressed: %v", liveErr, err)
		}
		if liveErr == nil {
			if live.Kind != msg.Kind || live.From != msg.From || live.Dup != msg.Dup || !slices.Equal(live.IDs, msg.IDs) || (trailer == 0) != (addrs == nil) {
				t.Fatalf("live decode %+v (trailer at %d), UnmarshalAddressed %+v %q", live, trailer, msg, addrs)
			}
			for i := 0; trailer != 0 && i < len(addrs); i++ {
				var a []byte
				if a, trailer = trailerEntry(data, trailer); string(a) != addrs[i] {
					t.Fatalf("trailer entry %d: live %q, UnmarshalAddressed %q", i, a, addrs[i])
				}
			}
			ids = live.IDs
		}
		var flat protocol.Outbox
		flatErr := UnmarshalFlatInto(data, 1, &flat)
		if v1 := err == nil && addrs == nil; (flatErr == nil) != v1 {
			t.Fatalf("flat decoder: %v, allocating decoder: version-1 datagram accepted = %v (err %v)", flatErr, v1, err)
		}
		if flatErr == nil {
			m := &flat.Msgs[0]
			if flat.Len() != 1 || m.To != 1 || m.Kind != msg.Kind || m.From != msg.From || m.Dup != msg.Dup || !slices.Equal(flat.MsgIDs(m), msg.IDs) {
				t.Fatalf("flat decoded %+v ids %v, allocating decoded %+v", *m, flat.MsgIDs(m), msg)
			}
			if out, err := AppendFlat(nil, &flat, m); err != nil || !bytes.Equal(out, data) {
				t.Fatalf("AppendFlat of the decoded message: %x (err %v), input %x", out, err, data)
			}
		} else if flat.Len() != 0 {
			t.Fatalf("rejected input appended %d messages", flat.Len())
		}
		if err != nil {
			return
		}
		var out []byte
		if addrs == nil {
			out, err = Marshal(msg)
		} else {
			out, err = MarshalAddressed(msg, addrs)
		}
		if err != nil {
			t.Fatalf("accepted message failed to re-encode: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("non-canonical roundtrip: %x -> %x", data, out)
		}
	})
}
