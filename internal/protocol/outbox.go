package protocol

import "sendforget/internal/peer"

// FlatMsg is a compact message header. Messages of the dominant two-id shape
// (every Figure 5.1 gossip message) carry their ids inline in IDs, so the
// hot path never touches the arena; longer payloads live in the owning
// Outbox's arena at [IDOff, IDOff+IDLen). Headers stay valid across arena
// growth because they hold offsets, not slices.
type FlatMsg struct {
	To, From     peer.ID
	IDs          [2]peer.ID // inline storage when IDLen <= 2
	IDOff, IDLen int32
	Kind         Kind
	Dup          bool
}

// Outbox accumulates outgoing messages with no per-message allocation in the
// steady state: both backing slices retain their capacity across Reset, so
// once a driver has warmed up, Append never touches the allocator. An Outbox
// belongs to one shard (or one driver) at a time; it is not safe for
// concurrent use.
type Outbox struct {
	Msgs []FlatMsg
	IDs  []peer.ID // the id arena Msgs index into
}

// Reset forgets the buffered messages, keeping the capacity.
func (o *Outbox) Reset() {
	o.Msgs = o.Msgs[:0]
	o.IDs = o.IDs[:0]
}

// Len returns the number of buffered messages.
func (o *Outbox) Len() int { return len(o.Msgs) }

// Append buffers one message. Up to two ids are stored inline in the
// header; longer payloads are copied into the arena, so callers may pass
// views into their own (or another outbox's) storage either way.
//
//vet:hotpath
func (o *Outbox) Append(to, from peer.ID, kind Kind, dup bool, ids ...peer.ID) {
	m := FlatMsg{To: to, From: from, IDLen: int32(len(ids)), Kind: kind, Dup: dup}
	if len(ids) <= 2 {
		copy(m.IDs[:], ids)
	} else {
		m.IDOff = int32(len(o.IDs))
		o.IDs = append(o.IDs, ids...)
	}
	o.Msgs = append(o.Msgs, m)
}

// Append2 buffers one two-id message — the shape every gossip message of
// the Figure 5.1 protocol family has. It is Append specialized to fixed
// arity: one header store, no variadic slice, no arena traffic.
//
//vet:hotpath
func (o *Outbox) Append2(to, from peer.ID, kind Kind, dup bool, id0, id1 peer.ID) {
	o.Msgs = append(o.Msgs, FlatMsg{
		To: to, From: from,
		IDs:   [2]peer.ID{id0, id1},
		IDLen: 2,
		Kind:  kind, Dup: dup,
	})
}

// Append1 buffers one single-id message — the request/reply shape of the
// flipper baseline and of degenerate shuffle offers. Like Append2 it is
// Append specialized to fixed arity: one header store, no variadic slice,
// no arena traffic.
//
//vet:hotpath
func (o *Outbox) Append1(to, from peer.ID, kind Kind, dup bool, id0 peer.ID) {
	o.Msgs = append(o.Msgs, FlatMsg{
		To: to, From: from,
		IDs:   [2]peer.ID{id0, 0},
		IDLen: 1,
		Kind:  kind, Dup: dup,
	})
}

// AppendFrom buffers a copy of message m of outbox src. The header is copied
// as is; a payload of more than two ids is re-homed into o's arena, so the
// copy outlives src's Reset.
//
//vet:hotpath
func (o *Outbox) AppendFrom(src *Outbox, m *FlatMsg) {
	h := *m
	if h.IDLen > 2 {
		h.IDOff = int32(len(o.IDs))
		o.IDs = append(o.IDs, src.IDs[m.IDOff:m.IDOff+m.IDLen]...)
	}
	o.Msgs = append(o.Msgs, h)
}

// MsgIDs returns message m's ids. The slice aliases the header (inline ids)
// or the arena: it is valid until the next Reset and must not be retained
// past it. m must point into o.Msgs.
//
//vet:hotpath
func (o *Outbox) MsgIDs(m *FlatMsg) []peer.ID {
	if m.IDLen <= 2 {
		return m.IDs[:m.IDLen]
	}
	return o.IDs[m.IDOff : m.IDOff+m.IDLen]
}

// Message returns the message a single step left in the outbox, in the
// self-contained shape the message-at-a-time drivers hand to a transport:
// the ids are copied out, so the caller may release the lock guarding the
// outbox, or reset it, before the message is sent. ok is false when the
// step emitted nothing. A step emits at most one message; drivers that
// batch many steps into one outbox walk Msgs instead.
func (o *Outbox) Message() (to peer.ID, msg Message, ok bool) {
	if len(o.Msgs) == 0 {
		return 0, Message{}, false
	}
	m := &o.Msgs[0]
	ids := make([]peer.ID, m.IDLen)
	copy(ids, o.MsgIDs(m))
	return m.To, Message{Kind: m.Kind, From: m.From, IDs: ids, Dup: m.Dup}, true
}

// Packet is a delivered message as a receive step sees it. IDs may alias
// driver-owned buffers: it is valid only for the duration of the call and
// must not be retained or mutated. A Message converts to a Packet directly.
type Packet struct {
	Kind Kind
	From peer.ID
	IDs  []peer.ID
	Dup  bool
}
