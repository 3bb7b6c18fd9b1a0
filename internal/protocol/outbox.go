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
// steady state: the backing slices retain their capacity across Reset, so
// once a driver has warmed up, Append never touches the allocator. An Outbox
// belongs to one shard (or one driver) at a time; it is not safe for
// concurrent use.
type Outbox struct {
	Msgs []FlatMsg
	IDs  []peer.ID // the id arena Msgs index into

	// Set on an outbox that sorts (Sorted). Msgs is then a pool of chunks —
	// laneChunk consecutive headers each, chunk c at Msgs[c*laneChunk:] — and
	// a lane is a chain of them: lane i starts in chunk i, which is its own
	// for good, and draws further chunks from the end of the pool as it
	// fills; next[c] is the chunk after c in its lane's chain.
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

// lane is one destination block's chain of chunks in a sorting outbox.
type lane struct {
	tail int32 // last chunk of the chain
	n    int32 // messages in the lane
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
// The lanes share one pool of headers and one id arena. A lane's first chunk
// is set aside when the outbox is built, so what the outbox has to grow by is
// what the fullest lanes hold beyond one chunk — a total that shrinks as
// traffic spreads over more lanes, and that is the pool's to hand to
// whichever lanes are the full ones: traffic that drifts from lane to lane
// costs no allocation.
func Sorted(lanes int, shift uint) Outbox {
	o := Outbox{
		Msgs:  make([]FlatMsg, lanes*laneChunk),
		lanes: make([]lane, lanes),
		next:  make([]int32, lanes),
		shift: shift,
	}
	o.Reset()
	return o
}

// Reset forgets the buffered messages, keeping the capacity.
func (o *Outbox) Reset() {
	o.Msgs = o.Msgs[:len(o.lanes)*laneChunk]
	o.IDs = o.IDs[:0]
	o.next = o.next[:len(o.lanes)]
	for i := range o.lanes {
		o.lanes[i] = lane{tail: int32(i)}
	}
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
	if l.n != 0 && l.n%laneChunk == 0 {
		// The lane's last chunk is full: chain a fresh one from the pool.
		c := int32(len(o.next))
		o.Msgs = append(o.Msgs, blankChunk[:]...)
		o.next = append(o.next, 0)
		o.next[l.tail] = c
		l.tail = c
	}
	l.n++
	return &o.Msgs[l.tail*laneChunk+(l.n-1)%laneChunk]
}

// Append buffers one message. Up to two ids are stored inline in the
// header; longer payloads are copied into the arena, so callers may pass
// views into their own (or another outbox's) storage either way.
//
//vet:hotpath
func (o *Outbox) Append(to, from peer.ID, kind Kind, dup bool, ids ...peer.ID) {
	m := o.slot(to)
	*m = FlatMsg{To: to, From: from, IDLen: int32(len(ids)), Kind: kind, Dup: dup}
	if len(ids) <= 2 {
		copy(m.IDs[:], ids)
	} else {
		m.IDOff = int32(len(o.IDs))
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
	return LaneRuns{o: l.o, chunk: int32(l.i), left: l.o.lanes[l.i].n}
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
