// Package transport carries protocol messages between nodes of the
// concurrent runtime: an in-memory lossy network for tests and examples,
// and a UDP transport (cmd/sfnode) demonstrating that S&F needs nothing
// beyond fire-and-forget datagrams — no acknowledgements, retransmissions,
// or connection state, exactly the paper's "send & forget" premise.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"

	"sendforget/internal/peer"
	"sendforget/internal/protocol"
)

// Wire format (big endian):
//
//	magic   uint16  0x5346 ("SF")
//	version uint8   1 (bare) or 2 (addressed)
//	kind    uint8
//	from    int32
//	flags   uint8   bit0 = dup
//	count   uint8   number of ids
//	ids     int32 x count
//
// Version 2 appends, per id, a length-prefixed UTF-8 address string
// (uint8 length; 0 = unknown). The paper models ids as "IP addresses and
// ports"; carrying addresses alongside ids lets a deployment's directory
// self-populate from gossip instead of requiring static configuration.
//
// appendWire is the only function that lays these bytes out and parseWire
// the only one that reads and validates them, as trailerEntry is for one
// trailer entry; the codec below, the flat codec (flatcodec.go) and the UDP
// endpoint all go through them.
const (
	wireMagic    = 0x5346
	wireVersion  = 1
	wireVersion2 = 2
	headerLen    = 2 + 1 + 1 + 4 + 1 + 1
	maxWireIDs   = 255
	maxWireAddr  = 255
)

// Error sentinels are package-level values so the hot decode path returns
// pre-existing interface values instead of constructing errors per call.
var (
	// ErrFlatOversize reports a message with more ids, or a longer address,
	// than the wire format's limit of 255.
	ErrFlatOversize = errors.New("transport: ids or address exceed wire limit")
	// ErrFlatTruncated reports a datagram whose length disagrees with its
	// header, id count or address trailer.
	ErrFlatTruncated = errors.New("transport: truncated datagram")
	// ErrFlatBadHeader reports a bad magic, a version the decoder does not
	// speak (the flat decoder speaks version 1 only: a version-2 datagram,
	// address trailer and all, is decoded by UnmarshalAddressed and the UDP
	// endpoint), or unknown flag bits.
	ErrFlatBadHeader = errors.New("transport: bad datagram header")
)

// wireHeader is the fixed part of a datagram, decoded. It stays at four
// fields so that the compiler passes it in registers: with the version as a
// fifth, parseWire's result went through the stack in mixed-width stores and
// loads and cost both decoders about 20 ns.
type wireHeader struct {
	kind  protocol.Kind
	from  peer.ID
	dup   bool
	count int // ids follow the header at headerLen + 4*i
}

// appendWire appends one datagram to dst: the header, the ids and, for
// version 2, addrs[i] as the trailer entry of ids[i] (nil for version 1).
func appendWire(dst []byte, version byte, kind protocol.Kind, from peer.ID, dup bool, ids []peer.ID, addrs []string) ([]byte, error) {
	if len(ids) > maxWireIDs {
		return dst, ErrFlatOversize
	}
	var flags byte
	if dup {
		flags = 1
	}
	dst = append(dst, byte(wireMagic>>8), byte(wireMagic&0xff), version, byte(kind))
	dst = binary.BigEndian.AppendUint32(dst, uint32(int32(from)))
	dst = append(dst, flags, byte(len(ids)))
	for _, id := range ids {
		dst = binary.BigEndian.AppendUint32(dst, uint32(int32(id)))
	}
	for _, a := range addrs {
		if len(a) > maxWireAddr {
			return dst, ErrFlatOversize
		}
		dst = append(dst, byte(len(a)))
		dst = append(dst, a...)
	}
	return dst, nil
}

// parseWire validates a datagram of version 1..maxVersion and returns its
// header and version. A version-1 datagram ends with its ids; decode checks
// the address trailer that follows them in version 2.
func parseWire(buf []byte, maxVersion byte) (h wireHeader, version byte, err error) {
	if len(buf) < headerLen {
		return wireHeader{}, 0, ErrFlatTruncated
	}
	version = buf[2]
	// Unknown flag bits are rejected: the format defines only bit0 (dup),
	// and accepting extras would break the canonical encoding.
	if binary.BigEndian.Uint16(buf[0:2]) != wireMagic || version < wireVersion || version > maxVersion || buf[8]&^1 != 0 {
		return wireHeader{}, 0, ErrFlatBadHeader
	}
	h = wireHeader{
		kind:  protocol.Kind(buf[3]),
		from:  peer.ID(int32(binary.BigEndian.Uint32(buf[4:8]))),
		dup:   buf[8]&1 == 1,
		count: int(buf[9]),
	}
	idsEnd := headerLen + 4*h.count
	if len(buf) < idsEnd || (version == wireVersion && len(buf) != idsEnd) {
		return wireHeader{}, 0, ErrFlatTruncated
	}
	return h, version, nil
}

// wireID reads the i-th id of a datagram parseWire accepted.
func wireID(buf []byte, i int) peer.ID {
	return peer.ID(int32(binary.BigEndian.Uint32(buf[headerLen+4*i:])))
}

// decode validates a datagram of either version and decodes its ids into
// ids' array, a buffer the caller may reuse, if it is large enough. A
// version-2 trailer is checked but left in buf: trailer is its offset for
// trailerEntry, 0 for version 1.
func decode(buf []byte, ids []peer.ID) (msg protocol.Message, trailer int, err error) {
	h, version, err := parseWire(buf, wireVersion2)
	if err != nil {
		return protocol.Message{}, 0, err
	}
	if cap(ids) < h.count {
		ids = make([]peer.ID, h.count)
	}
	ids = ids[:h.count]
	for i := range ids {
		ids[i] = wireID(buf, i)
	}
	if version == wireVersion2 {
		trailer = headerLen + 4*h.count
		off := trailer
		for i := 0; i < h.count && off >= 0; i++ {
			_, off = trailerEntry(buf, off)
		}
		if off != len(buf) {
			return protocol.Message{}, 0, ErrFlatTruncated
		}
	}
	return protocol.Message{Kind: h.kind, From: h.from, Dup: h.dup, IDs: ids}, trailer, nil
}

// trailerEntry reads the version-2 trailer entry at off: its address bytes,
// aliasing buf (empty = unknown), and the offset of the next entry, or -1
// if the entry runs past the end of buf.
func trailerEntry(buf []byte, off int) (addr []byte, next int) {
	if off >= len(buf) || off+1+int(buf[off]) > len(buf) {
		return nil, -1
	}
	next = off + 1 + int(buf[off])
	return buf[off+1 : next], next
}

// Marshal encodes a protocol message into a datagram payload.
func Marshal(msg protocol.Message) ([]byte, error) {
	return appendWire(make([]byte, 0, headerLen+4*len(msg.IDs)), wireVersion, msg.Kind, msg.From, msg.Dup, msg.IDs, nil)
}

// MarshalAddressed encodes a version-2 datagram carrying one address string
// per id (empty = unknown). len(addrs) must equal len(msg.IDs).
func MarshalAddressed(msg protocol.Message, addrs []string) ([]byte, error) {
	if len(addrs) != len(msg.IDs) {
		return nil, fmt.Errorf("transport: %d addresses for %d ids", len(addrs), len(msg.IDs))
	}
	size := headerLen + 4*len(msg.IDs)
	for _, a := range addrs {
		size += 1 + len(a)
	}
	return appendWire(make([]byte, 0, size), wireVersion2, msg.Kind, msg.From, msg.Dup, msg.IDs, addrs)
}

// Unmarshal decodes a datagram payload (either wire version); version-2
// address payloads are ignored. Use UnmarshalAddressed to retrieve them.
func Unmarshal(buf []byte) (protocol.Message, error) {
	msg, _, err := decode(buf, nil)
	return msg, err
}

// UnmarshalAddressed decodes a datagram payload. For version-1 datagrams
// addrs is nil; for version 2 it has one entry per id (possibly empty).
func UnmarshalAddressed(buf []byte) (protocol.Message, []string, error) {
	msg, off, err := decode(buf, nil)
	if err != nil || off == 0 {
		return msg, nil, err
	}
	addrs := make([]string, len(msg.IDs))
	for i := range addrs {
		a, next := trailerEntry(buf, off) // decode checked every entry
		addrs[i], off = string(a), next
	}
	return msg, addrs, nil
}
