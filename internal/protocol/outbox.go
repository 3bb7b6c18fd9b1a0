package protocol

import (
	"slices"

	"sendforget/internal/peer"
)

// FlatMsg is a compact message header: 20 bytes, so a run of MaxRun headers
// spans five cache lines. Messages of the dominant two-id shape (every
// Figure 5.1 gossip message) carry their ids inline in IDs, so the hot path
// never touches the arena; a longer payload lives in the owning Outbox's
// arena at [IDs[0], IDs[0]+IDLen), its offset stored where the inline ids
// would be. Headers stay valid across arena growth because they hold
// offsets, not slices.
type FlatMsg struct {
	To, From peer.ID
	IDs      [2]peer.ID // the ids when IDLen <= 2, else IDs[0] is the arena offset
	IDLen    uint16
	Kind     Kind
	Dup      bool
}

// MaxIDs is the longest payload a FlatMsg can describe.
const MaxIDs = 1<<16 - 1

// Outbox accumulates outgoing messages with no per-message allocation in the
// steady state: the backing slices retain their capacity across Reset, so
// once a driver has warmed up, Append never touches the allocator. An Outbox
// belongs to one shard (or one driver) at a time; it is not safe for
// concurrent use.
type Outbox struct {
	Msgs []FlatMsg
	IDs  []peer.ID // the id arena Msgs index into

	// Set on an outbox that sorts (Sorted). Msgs is then a pool of chunks —
	// laneChunk consecutive headers each, chunk c at Msgs[c*laneChunk:] — and
	// a lane is a chain of them, each taken from the end of the pool when the
	// lane's last one is full (its first on its first append); next[c] is
	// the chunk after c in its lane's chain.
	lanes []lane
	next  []int32
	shift uint
}

// laneChunk is the number of consecutive headers a lane takes from the pool
// at a time: long enough that a reader walks cache lines in order, short
// enough that a lane with one message wastes little.
const laneChunk = 16

// MaxRun is the length of the longest run LaneRuns.Next hands out: the batch
// size of a consumer that prepares for a run's messages before it handles
// any of them.
const MaxRun = laneChunk

// lane is one destination block's chain of chunks in a sorting outbox; a
// lane with no messages has none.
type lane struct {
	head, tail int32 // first and last chunk of the chain
	n          int32 // messages in the lane
}

// blankChunk extends the pool by one chunk.
var blankChunk [laneChunk]FlatMsg

// Sorted returns an outbox that files every appended message, as it is
// appended, into the lane of its destination — lane to>>shift, one lane per
// contiguous block of 1<<shift ids — so that whoever consumes one lane (Lane)
// finds its messages in append order with no pass over the whole output. The
// step cores append to it like to any outbox; a message to an id past the
// last lane is a bug in the caller and panics.
//
// The lanes share one pool of headers and one id arena, and a lane takes a
// chunk of the pool only when it has a message for it: an outbox nothing is
// filed into costs only its lane table. The pool grows by a chunk per lane
// at least, and Reset keeps it for whichever lanes are busy next, so traffic
// that drifts or spreads from lane to lane costs no allocation.
func Sorted(lanes int, shift uint) Outbox {
	return Outbox{lanes: make([]lane, lanes), shift: shift}
}

// Reset forgets the buffered messages, keeping the capacity.
func (o *Outbox) Reset() {
	o.Msgs = o.Msgs[:0]
	o.IDs = o.IDs[:0]
	o.next = o.next[:0]
	clear(o.lanes)
}

// Len returns the number of buffered messages.
func (o *Outbox) Len() int {
	if o.lanes == nil {
		return len(o.Msgs)
	}
	n := 0
	for i := range o.lanes {
		n += int(o.lanes[i].n)
	}
	return n
}

// slot makes room for one more header — at the end of Msgs, or, in an outbox
// that sorts, at the end of the lane of destination to — and returns it for
// the caller to fill in place.
//
//vet:hotpath
func (o *Outbox) slot(to peer.ID) *FlatMsg {
	if o.lanes == nil {
		o.Msgs = append(o.Msgs, FlatMsg{})
		return &o.Msgs[len(o.Msgs)-1]
	}
	l := &o.lanes[to>>o.shift]
	if l.n%laneChunk == 0 {
		// The lane has no chunk yet, or its last one is full: chain a fresh
		// one from the pool.
		c := int32(len(o.next))
		if len(o.Msgs)+laneChunk > cap(o.Msgs) {
			o.grow()
		}
		o.Msgs = append(o.Msgs, blankChunk[:]...)
		o.next = append(o.next, 0)
		if l.n == 0 {
			l.head = c
		} else {
			o.next[l.tail] = c
		}
		l.tail = c
	}
	l.n++
	return &o.Msgs[l.tail*laneChunk+(l.n-1)%laneChunk]
}

// grow makes room in the pool of a sorting outbox for at least one more
// chunk per lane. A lane holds a part-filled chunk once it has any message,
// so as traffic spreads over more lanes, what the pool must hold for the
// same messages grows by up to a chunk per lane: the pool takes that room in
// one step, not a chunk at a time over the many rounds the spreading takes.
func (o *Outbox) grow() {
	o.Msgs = slices.Grow(o.Msgs, len(o.lanes)*laneChunk)
	o.next = slices.Grow(o.next, cap(o.Msgs)/laneChunk-len(o.next))
}

// Append buffers one message. Up to two ids are stored inline in the
// header; longer payloads are copied into the arena, so callers may pass
// views into their own (or another outbox's) storage either way. More than
// MaxIDs ids is a bug in the caller and panics.
//
//vet:hotpath
func (o *Outbox) Append(to, from peer.ID, kind Kind, dup bool, ids ...peer.ID) {
	if len(ids) > MaxIDs {
		panic("protocol: Append of more than MaxIDs (65535) ids")
	}
	m := o.slot(to)
	*m = FlatMsg{To: to, From: from, IDLen: uint16(len(ids)), Kind: kind, Dup: dup}
	if len(ids) <= 2 {
		copy(m.IDs[:], ids)
	} else {
		m.IDs[0] = peer.ID(len(o.IDs))
		o.IDs = append(o.IDs, ids...)
	}
}

// Append2 buffers one two-id message — the shape every gossip message of
// the Figure 5.1 protocol family has. It is Append specialized to fixed
// arity: one header store, no variadic slice, no arena traffic.
//
//vet:hotpath
func (o *Outbox) Append2(to, from peer.ID, kind Kind, dup bool, id0, id1 peer.ID) {
	*o.slot(to) = FlatMsg{
		To: to, From: from,
		IDs:   [2]peer.ID{id0, id1},
		IDLen: 2,
		Kind:  kind, Dup: dup,
	}
}

// Append1 buffers one single-id message — the request/reply shape of the
// flipper baseline and of degenerate shuffle offers. Like Append2 it is
// Append specialized to fixed arity: one header store, no variadic slice,
// no arena traffic.
//
//vet:hotpath
func (o *Outbox) Append1(to, from peer.ID, kind Kind, dup bool, id0 peer.ID) {
	*o.slot(to) = FlatMsg{
		To: to, From: from,
		IDs:   [2]peer.ID{id0, 0},
		IDLen: 1,
		Kind:  kind, Dup: dup,
	}
}

// Lane is one lane of a sorting outbox as its consumer holds it: it can be
// read, front to back, and nothing else. The outbox's owner must not append
// to it, or reset it, while a consumer reads.
type Lane struct {
	o *Outbox
	i int
}

// Lane returns lane i of a sorting outbox.
func (o *Outbox) Lane(i int) Lane { return Lane{o: o, i: i} }

// Runs starts a walk over the lane's messages in append order.
//
//vet:hotpath
func (l Lane) Runs() LaneRuns {
	ln := &l.o.lanes[l.i]
	return LaneRuns{o: l.o, chunk: ln.head, left: ln.n}
}

// MsgIDs returns the ids of message m of the lane; see Outbox.MsgIDs.
//
//vet:hotpath
func (l Lane) MsgIDs(m *FlatMsg) []peer.ID { return l.o.MsgIDs(m) }

// LaneRuns walks a lane run by run, a run being the messages that lie
// consecutively in memory.
type LaneRuns struct {
	o           *Outbox
	chunk, left int32
}

// Next returns the next run of the lane, nil after the last. The slice
// aliases the outbox and must not be written or retained past its Reset.
//
//vet:hotpath
func (r *LaneRuns) Next() []FlatMsg {
	if r.left == 0 {
		return nil
	}
	n := min(r.left, laneChunk)
	run := r.o.Msgs[int(r.chunk)*laneChunk:][:n]
	r.left -= n
	r.chunk = r.o.next[r.chunk]
	return run
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
	off := int(m.IDs[0])
	return o.IDs[off : off+int(m.IDLen)]
}

// Lend returns the message a single step left in the outbox, in the shape
// the message-at-a-time drivers hand to a transport. It is lent, not copied:
// msg.IDs aliases the outbox and is valid until the next Reset, so a driver
// keeps the outbox to itself until the message has been sent (a
// runtime.Sender keeps nothing of it past Send). ok is false when the step
// emitted nothing. A step emits at most one message; drivers that batch
// many steps into one outbox walk Msgs instead.
func (o *Outbox) Lend() (to peer.ID, msg Message, ok bool) {
	if len(o.Msgs) == 0 {
		return 0, Message{}, false
	}
	m := &o.Msgs[0]
	return m.To, Message{Kind: m.Kind, From: m.From, IDs: o.MsgIDs(m), Dup: m.Dup}, true
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
