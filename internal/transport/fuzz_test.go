package transport

import (
	"bytes"
	"slices"
	"testing"

	"sendforget/internal/peer"
	"sendforget/internal/protocol"
)

// FuzzUnmarshal feeds arbitrary datagrams through both decoders: neither
// may panic, every accepted payload must re-encode to identical bytes (the
// wire format has a unique canonical encoding), and the flat codec must
// agree with the allocating one on every input — it accepts exactly the
// version-1 datagrams, decodes the same message, and re-encodes the same
// bytes.
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
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, addrs, err := UnmarshalAddressed(data)
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
