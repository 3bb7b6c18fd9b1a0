package protocol_test

import (
	"fmt"
	"reflect"
	gort "runtime"
	"strings"
	"testing"

	"sendforget/internal/peer"
	"sendforget/internal/protocol"
)

// filed is one appended message as the outbox-lane model remembers it.
type filed struct {
	to, from peer.ID
	kind     protocol.Kind
	dup      bool
	ids      []peer.ID
}

// payload returns n ids that name message seq and their position in it.
func payload(seq, n int) []peer.ID {
	ids := make([]peer.ID, n)
	for j := range ids {
		ids[j] = peer.ID(seq<<9 | j)
	}
	return ids
}

// appendAny files m through the Append form that fits its arity, the
// general one when pick says so.
func appendAny(ob *protocol.Outbox, m filed, pick int) {
	switch n := len(m.ids); {
	case n == 1 && pick%3 == 1:
		ob.Append1(m.to, m.from, m.kind, m.dup, m.ids[0])
	case n == 2 && pick%3 == 2:
		ob.Append2(m.to, m.from, m.kind, m.dup, m.ids[0], m.ids[1])
	default:
		ob.Append(m.to, m.from, m.kind, m.dup, m.ids...)
	}
}

// sameMsg reports how header h, whose ids read back as got, differs from m.
func sameMsg(h *protocol.FlatMsg, got []peer.ID, m filed) error {
	if h.To != m.to || h.From != m.from || h.Kind != m.kind || h.Dup != m.dup || int(h.IDLen) != len(m.ids) {
		return fmt.Errorf("header %+v, want %+v", *h, m)
	}
	if len(got) != len(m.ids) {
		return fmt.Errorf("%d ids, want %d", len(got), len(m.ids))
	}
	for j := range got {
		if got[j] != m.ids[j] {
			return fmt.Errorf("ids %v, want %v", got, m.ids)
		}
	}
	return nil
}

// checkLanes holds every lane walk of a sorting outbox to the messages of
// model addressed to that lane, in append order, and Len to the model's.
func checkLanes(t *testing.T, ob *protocol.Outbox, lanes int, shift uint, model []filed) {
	t.Helper()
	if ob.Len() != len(model) {
		t.Fatalf("Len() = %d, want %d", ob.Len(), len(model))
	}
	for l := 0; l < lanes; l++ {
		var want []filed
		for _, m := range model {
			if int(m.to>>shift) == l {
				want = append(want, m)
			}
		}
		lane, at := ob.Lane(l), 0
		for runs := lane.Runs(); ; {
			run := runs.Next()
			if run == nil {
				break
			}
			if len(run) > protocol.MaxRun {
				t.Fatalf("lane %d: a run of %d headers, longer than MaxRun", l, len(run))
			}
			for i := range run {
				if at == len(want) {
					t.Fatalf("lane %d holds more than the %d messages addressed to it", l, len(want))
				}
				if err := sameMsg(&run[i], lane.MsgIDs(&run[i]), want[at]); err != nil {
					t.Fatalf("lane %d message %d: %v", l, at, err)
				}
				at++
			}
		}
		if at != len(want) {
			t.Fatalf("lane %d: the walk yielded %d messages, want %d", l, at, len(want))
		}
	}
}

// checkFlat holds an unsorted outbox to model: Msgs in append order.
func checkFlat(t *testing.T, ob *protocol.Outbox, model []filed) {
	t.Helper()
	if ob.Len() != len(model) || len(ob.Msgs) != len(model) {
		t.Fatalf("Len() = %d, len(Msgs) = %d, want %d", ob.Len(), len(ob.Msgs), len(model))
	}
	for i := range ob.Msgs {
		if err := sameMsg(&ob.Msgs[i], ob.MsgIDs(&ob.Msgs[i]), model[i]); err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
	}
}

// FuzzOutboxLanes runs random append sequences against a per-lane model: the
// first two bytes pick the geometry (1–8 lanes of 1–8 ids), and then each op
// is either a Reset of both outboxes or one message — a destination in any
// lane and a payload of 0–300 ids — appended to a sorting and to an unsorted
// outbox alike. Before every Reset and at the end, every lane walk must
// return exactly its messages in append order with their ids intact, and
// the unsorted outbox all of them.
func FuzzOutboxLanes(f *testing.F) {
	f.Add([]byte{4, 2, 1, 0, 0, 2, 1, 9, 0, 3, 2, 20, 1, 44, 5, 3, 7, 0, 1})
	f.Add([]byte{7, 3, 2, 63, 1, 44, 0, 63, 1, 45, 0, 63, 1, 46, 0, 0, 2, 1, 0, 2})
	long := []byte{3, 1}
	for i := 0; i < 120; i++ {
		long = append(long, byte(1+i%5), byte(i*7), byte(i%3), byte(i*13))
		if i%50 == 49 {
			long = append(long, 0)
		}
	}
	f.Add(long)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 4096 {
			return
		}
		lanes, shift := 1+int(data[0]%8), uint(data[1]%4)
		sorted, flat := protocol.Sorted(lanes, shift), protocol.Outbox{}
		var model []filed
		check := func() {
			t.Helper()
			checkLanes(t, &sorted, lanes, shift, model)
			checkFlat(t, &flat, model)
		}
		for ops, seq := data[2:], 0; len(ops) > 0; seq++ {
			op := ops[0]
			if op == 0 {
				check()
				sorted.Reset()
				flat.Reset()
				model = model[:0]
				ops = ops[1:]
				continue
			}
			if len(ops) < 4 {
				break
			}
			n := (int(ops[2])<<8 | int(ops[3])) % 301
			m := filed{
				to:   peer.ID(int(ops[1]) % (lanes << shift)),
				from: peer.ID(seq),
				kind: protocol.Kind(op % 3),
				dup:  op&8 != 0,
				ids:  payload(seq, n),
			}
			appendAny(&sorted, m, int(op))
			appendAny(&flat, m, int(op))
			model = append(model, m)
			ops = ops[4:]
		}
		check()
	})
}

// TestFlatMsgLayout pins the header at 20 bytes: sixteen of them, a run,
// fill five cache lines.
func TestFlatMsgLayout(t *testing.T) {
	if size := reflect.TypeOf(protocol.FlatMsg{}).Size(); size != 20 {
		t.Errorf("FlatMsg is %d bytes, want 20", size)
	}
}

// TestOutboxArenaOffset pins the offset path of a payload of more than two
// ids in both outbox shapes: its offset into the arena is in IDs[0], and
// MsgIDs reads the ids back from there — in an unsorted outbox, and in a
// sorting one whose lane runs over several chunks that another lane's
// chunks interleave with.
func TestOutboxArenaOffset(t *testing.T) {
	sizes := []int{3, 8, 255}
	check := func(t *testing.T, ob *protocol.Outbox, m *protocol.FlatMsg, w filed) {
		t.Helper()
		if err := sameMsg(m, ob.MsgIDs(m), w); err != nil {
			t.Fatal(err)
		}
		off := int(m.IDs[0])
		if got := ob.IDs[off : off+len(w.ids)]; got[0] != w.ids[0] || got[len(got)-1] != w.ids[len(w.ids)-1] {
			t.Fatalf("arena at IDs[0] = %d holds %v..., want the ids %v...", off, got[:1], w.ids[:1])
		}
	}
	t.Run("unsorted", func(t *testing.T) {
		var ob protocol.Outbox
		var model []filed
		for i := 0; i < 9; i++ {
			w := filed{to: peer.ID(i), from: 1, ids: payload(i, sizes[i%3])}
			ob.Append(w.to, w.from, w.kind, w.dup, w.ids...)
			model = append(model, w)
		}
		for i := range ob.Msgs {
			check(t, &ob, &ob.Msgs[i], model[i])
		}
	})
	t.Run("sorted", func(t *testing.T) {
		ob := protocol.Sorted(2, 4)
		var model []filed
		// 40 messages to lane 1, three chunks, with one to lane 0 between
		// every two so their chunks interleave in the pool.
		for i := 0; i < 60; i++ {
			w := filed{to: 16 + peer.ID(i%16), from: 2, dup: true, ids: payload(i, sizes[i%3])}
			if i%3 == 2 {
				w.to = peer.ID(i % 16)
			}
			ob.Append(w.to, w.from, w.kind, w.dup, w.ids...)
			model = append(model, w)
		}
		checkLanes(t, &ob, 2, 4, model)
		at := 0
		lane := ob.Lane(1)
		for runs := lane.Runs(); ; {
			run := runs.Next()
			if run == nil {
				break
			}
			for i := range run {
				for model[at].to < 16 {
					at++
				}
				check(t, &ob, &run[i], model[at])
				at++
			}
		}
	})
}

// TestAppendPastMaxIDs holds Append to its limit: 65,535 ids are one
// message, 65,536 a caller bug that panics naming the limit.
func TestAppendPastMaxIDs(t *testing.T) {
	var ob protocol.Outbox
	ob.Append(1, 2, protocol.KindGossip, false, make([]peer.ID, protocol.MaxIDs)...)
	if got := len(ob.MsgIDs(&ob.Msgs[0])); got != protocol.MaxIDs {
		t.Fatalf("a %d-id payload reads back %d ids", protocol.MaxIDs, got)
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "65535") {
			t.Errorf("Append of 65536 ids panicked with %q, want a message naming the limit 65535", msg)
		}
	}()
	ob.Append(1, 2, protocol.KindGossip, false, make([]peer.ID, protocol.MaxIDs+1)...)
}

// TestSortedAllocatesLaneTable holds a new sorting outbox to one allocation,
// its lane table: no lane holds a chunk before its first message.
func TestSortedAllocatesLaneTable(t *testing.T) {
	var ob protocol.Outbox
	if avg := testing.AllocsPerRun(20, func() { ob = protocol.Sorted(64, 8) }); avg != 1 {
		t.Errorf("Sorted(64, 8) allocates %.1f times, want 1", avg)
	}
	if cap(ob.Msgs) != 0 || cap(ob.IDs) != 0 {
		t.Errorf("a new sorting outbox holds %d headers and %d ids, want none", cap(ob.Msgs), cap(ob.IDs))
	}
	ob.Reset()
	checkLanes(t, &ob, 64, 8, nil)
}

// TestSortedSpreadingGrowsOnce holds a sorting outbox to one growth of its
// pool while a round's traffic spreads from one lane to all of them: every
// busy lane holds a part-filled chunk, so the same messages need up to a
// chunk per lane more room, and the pool takes it in one step: a chunk at a
// time over the rounds the spreading takes would leave the sharded tick
// allocating long after its warm-up.
func TestSortedSpreadingGrowsOnce(t *testing.T) {
	const lanes, shift, msgs = 64, 4, 256
	ob := protocol.Sorted(lanes, shift)
	round := func(spread int) {
		ob.Reset()
		for i := 0; i < msgs; i++ {
			ob.Append2(peer.ID(i%spread)<<shift, 1, protocol.KindGossip, false, 2, 3)
		}
	}
	round(1)
	var before, after gort.MemStats
	gort.ReadMemStats(&before)
	for spread := 2; spread <= lanes; spread++ {
		round(spread)
	}
	gort.ReadMemStats(&after)
	// One growth is two allocations: the headers and the chunk links.
	if n := after.Mallocs - before.Mallocs; n > 2 {
		t.Errorf("spreading one lane's traffic over %d lanes allocated %d times, want at most 2", lanes, n)
	}
	if ob.Len() != msgs {
		t.Errorf("Len() = %d, want %d", ob.Len(), msgs)
	}
}
