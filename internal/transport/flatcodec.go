package transport

import (
	"encoding/binary"
	"errors"

	"sendforget/internal/peer"
	"sendforget/internal/protocol"
)

// This file is the flat wire codec: the same version-1 format as
// Marshal/Unmarshal, but in append/decode-into style so a warmed-up caller
// never touches the allocator. Marshal allocates a fresh buffer per message
// by design (its callers hand the slice to a datagram write and move on);
// a streaming transport coalescing thousands of FlatMsgs per write cannot
// afford that, so AppendFlat extends a caller-owned buffer and
// UnmarshalFlatInto decodes straight into a pooled Outbox arena. Both
// functions are //vet:hotpath roots: the hotalloc analyzer proves every
// branch of them allocation-free.

// Error sentinels are package-level values so the hot decode path returns
// pre-existing interface values instead of constructing errors per call.
var (
	// ErrFlatOversize reports a message whose id count exceeds the wire
	// format's 255-id limit.
	ErrFlatOversize = errors.New("transport: ids exceed wire limit")
	// ErrFlatTruncated reports a datagram shorter than its header or id
	// count promises.
	ErrFlatTruncated = errors.New("transport: truncated flat datagram")
	// ErrFlatBadHeader reports a bad magic, an unsupported version (the flat
	// decoder speaks version 1 only — version-2 address trailers need string
	// allocation and belong to UnmarshalAddressed), or unknown flag bits.
	ErrFlatBadHeader = errors.New("transport: bad flat datagram header")
)

// AppendFlat appends the version-1 wire encoding of message m (whose ids
// live in o) to dst and returns the extended slice. It is Marshal in
// append style: once dst has warmed up to the message size, an append is
// copy-only. m must point into o.Msgs.
//
//vet:hotpath
func AppendFlat(dst []byte, o *protocol.Outbox, m *protocol.FlatMsg) ([]byte, error) {
	ids := o.MsgIDs(m)
	if len(ids) > maxWireIDs {
		return dst, ErrFlatOversize
	}
	dst = append(dst,
		byte(wireMagic>>8), byte(wireMagic&0xff),
		wireVersion,
		byte(m.Kind))
	var from [4]byte
	binary.BigEndian.PutUint32(from[:], uint32(int32(m.From)))
	dst = append(dst, from[0], from[1], from[2], from[3])
	var flags byte
	if m.Dup {
		flags = 1
	}
	dst = append(dst, flags, byte(len(ids)))
	for _, id := range ids {
		var w [4]byte
		binary.BigEndian.PutUint32(w[:], uint32(int32(id)))
		dst = append(dst, w[0], w[1], w[2], w[3])
	}
	return dst, nil
}

// UnmarshalFlatInto decodes one version-1 datagram as a message addressed
// to `to`, appending it to out with the ids stored inline or in out's
// arena. It is Unmarshal in decode-into style: the pooled outbox absorbs
// the ids, so a warmed-up receive loop decodes without allocating.
//
//vet:hotpath
func UnmarshalFlatInto(buf []byte, to peer.ID, out *protocol.Outbox) error {
	if len(buf) < headerLen {
		return ErrFlatTruncated
	}
	if binary.BigEndian.Uint16(buf[0:2]) != wireMagic {
		return ErrFlatBadHeader
	}
	if buf[2] != wireVersion {
		return ErrFlatBadHeader
	}
	if buf[8]&^1 != 0 {
		return ErrFlatBadHeader
	}
	count := int(buf[9])
	if len(buf) != headerLen+4*count {
		return ErrFlatTruncated
	}
	m := protocol.FlatMsg{
		To:    to,
		From:  peer.ID(int32(binary.BigEndian.Uint32(buf[4:8]))),
		IDLen: int32(count),
		Kind:  protocol.Kind(buf[3]),
		Dup:   buf[8]&1 == 1,
	}
	if count <= 2 {
		for i := 0; i < count; i++ {
			m.IDs[i] = peer.ID(int32(binary.BigEndian.Uint32(buf[headerLen+4*i:])))
		}
	} else {
		m.IDOff = int32(len(out.IDs))
		for i := 0; i < count; i++ {
			out.IDs = append(out.IDs, peer.ID(int32(binary.BigEndian.Uint32(buf[headerLen+4*i:]))))
		}
	}
	out.Msgs = append(out.Msgs, m)
	return nil
}
