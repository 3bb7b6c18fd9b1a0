package transport

import (
	"sendforget/internal/peer"
	"sendforget/internal/protocol"
)

// This file is the flat wire codec: the same version-1 format as
// Marshal/Unmarshal, through the same appendWire/parseWire pair, but in
// append/decode-into style for the FlatMsgs of a pooled Outbox, so a
// warmed-up caller never touches the allocator. Both functions are //vet:hotpath
// roots: the hotalloc analyzer proves every branch of them allocation-free.

// AppendFlat appends the version-1 wire encoding of message m (whose ids
// live in o) to dst and returns the extended slice. It is Marshal in
// append style: once dst has warmed up to the message size, an append is
// copy-only. m must point into o.Msgs.
//
//vet:hotpath
func AppendFlat(dst []byte, o *protocol.Outbox, m *protocol.FlatMsg) ([]byte, error) {
	return appendWire(dst, wireVersion, m.Kind, m.From, m.Dup, o.MsgIDs(m), nil)
}

// UnmarshalFlatInto decodes one version-1 datagram as a message addressed
// to `to`, appending it to out with the ids stored inline or in out's
// arena. It is Unmarshal in decode-into style: the pooled outbox absorbs
// the ids, so a warmed-up receive loop decodes without allocating.
//
//vet:hotpath
func UnmarshalFlatInto(buf []byte, to peer.ID, out *protocol.Outbox) error {
	h, _, err := parseWire(buf, wireVersion)
	if err != nil {
		return err
	}
	m := protocol.FlatMsg{To: to, From: h.from, IDLen: uint16(h.count), Kind: h.kind, Dup: h.dup}
	if h.count <= 2 {
		for i := 0; i < h.count; i++ {
			m.IDs[i] = wireID(buf, i)
		}
	} else {
		m.IDs[0] = peer.ID(len(out.IDs))
		for i := 0; i < h.count; i++ {
			out.IDs = append(out.IDs, wireID(buf, i))
		}
	}
	out.Msgs = append(out.Msgs, m)
	return nil
}
