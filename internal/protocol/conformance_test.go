package protocol_test

import (
	"slices"
	"testing"

	"sendforget/internal/peer"
	"sendforget/internal/protocol"
	"sendforget/internal/protocol/flipper"
	"sendforget/internal/protocol/pushpull"
	"sendforget/internal/protocol/sendforget"
	"sendforget/internal/protocol/sfopt"
	"sendforget/internal/protocol/shuffle"
	"sendforget/internal/rng"
	"sendforget/internal/view"
)

// conformant is one row of the conformance table: a protocol's core factory
// and what the StepCore contract looks like for it. Everything is checked
// through the one step API (SeedView, InitiateBatch, ReceiveBatch,
// CheckView); no row reaches into a core.
type conformant struct {
	name    string
	newCore protocol.CoreFactory
	s       int // view size

	minSeeds int  // fewest seeds SeedView accepts
	evenOnly bool // SeedView truncates an odd seed count (S&F parity)

	idsPerMsg int           // ids an initiate message carries
	kind      protocol.Kind // kind of an initiate message
	// payload reports whether ids is the payload the step must send from
	// node u when it selected first v (the destination) and then w.
	payload func(ids []peer.ID, u, w peer.ID) bool
	// removed is how many entries a send above the floor takes out of the
	// view.
	removed int
	// floor is the outdegree at and below which a send keeps its entries
	// and flags the message Dup; -1 when the protocol never duplicates.
	floor int
	// dropsWhenFull is how many of two received ids a full view does not
	// keep.
	dropsWhenFull int
	// replies: a request/reply protocol.
	replies bool
	// malformed lists packets of the protocol's own kinds that it must
	// ignore because their arity is wrong; protocols that store whatever
	// ids arrive have none.
	malformed []protocol.Packet
}

// sfMalformed: S&F messages carry exactly two ids.
var sfMalformed = []protocol.Packet{
	{Kind: protocol.KindGossip, From: 2, IDs: []peer.ID{2}},
	{Kind: protocol.KindGossip, From: 2, IDs: []peer.ID{2, 30, 31}},
	{Kind: protocol.KindGossip, From: 2},
}

func uw(ids []peer.ID, u, w peer.ID) bool { return len(ids) == 2 && ids[0] == u && ids[1] == w }

func table() []conformant {
	return []conformant{
		{
			name:    "sendforget",
			newCore: func() (protocol.StepCore, error) { return sendforget.NewCore(8, 2) },
			s:       8, minSeeds: 2, evenOnly: true,
			idsPerMsg: 2, kind: protocol.KindGossip, payload: uw,
			removed: 2, floor: 2, dropsWhenFull: 2, malformed: sfMalformed,
		},
		{
			name:    "sendforget-tracked",
			newCore: func() (protocol.StepCore, error) { return sendforget.NewTrackedCore(8, 2) },
			s:       8, minSeeds: 2, evenOnly: true,
			idsPerMsg: 2, kind: protocol.KindGossip, payload: uw,
			removed: 2, floor: 2, dropsWhenFull: 2, malformed: sfMalformed,
		},
		{
			name:    "sfopt",
			newCore: func() (protocol.StepCore, error) { return sfopt.NewCore(sfopt.Options{S: 8, DL: 2}) },
			s:       8, minSeeds: 2, evenOnly: true,
			idsPerMsg: 2, kind: protocol.KindGossip, payload: uw,
			removed: 2, floor: 2, dropsWhenFull: 2,
		},
		{
			name:    "shuffle",
			newCore: func() (protocol.StepCore, error) { return shuffle.NewCore(8) },
			s:       8, minSeeds: 1,
			idsPerMsg: 2, kind: protocol.KindRequest, payload: uw,
			removed: 2, floor: -1, dropsWhenFull: 2, replies: true,
		},
		{
			name:    "flipper",
			newCore: func() (protocol.StepCore, error) { return flipper.NewCore(8) },
			s:       8, minSeeds: 1,
			idsPerMsg: 1, kind: protocol.KindRequest,
			payload: func(ids []peer.ID, _, w peer.ID) bool { return len(ids) == 1 && ids[0] == w },
			removed: 1, floor: -1, replies: true,
			// A flip moves exactly one id.
			malformed: []protocol.Packet{
				{Kind: protocol.KindRequest, From: 2, IDs: []peer.ID{2, 30}},
				{Kind: protocol.KindReply, From: 2},
			},
		},
		{
			name:    "pushpull",
			newCore: func() (protocol.StepCore, error) { return pushpull.NewCore(8) },
			s:       8, minSeeds: 1,
			idsPerMsg: 2, kind: protocol.KindGossip, payload: uw,
			removed: 0, floor: -1, dropsWhenFull: 0,
		},
	}
}

// distinctSeeds returns k distinct ids starting at 10, none of them the
// acting node ids the tests use (0..3).
func distinctSeeds(k int) []peer.ID {
	out := make([]peer.ID, k)
	for i := range out {
		out[i] = peer.ID(10 + i)
	}
	return out
}

func mustCore(t *testing.T, c conformant) protocol.StepCore {
	t.Helper()
	core, err := c.newCore()
	if err != nil {
		t.Fatal(err)
	}
	return core
}

func mustSeed(t *testing.T, core protocol.StepCore, k int) *view.View {
	t.Helper()
	lv := view.New(core.ViewSize())
	if err := core.SeedView(lv, distinctSeeds(k)); err != nil {
		t.Fatalf("SeedView(%d seeds): %v", k, err)
	}
	return lv
}

// send retries the initiate step at u until it emits, asserting on the way
// that every failed attempt is a self-loop: no message, view unchanged.
func send(t *testing.T, core protocol.StepCore, lv *view.View, u peer.ID, r *rng.RNG) (msgs, dups int, out protocol.Outbox) {
	t.Helper()
	for try := 0; try < 10000; try++ {
		before := lv.Clone()
		msgs, dups, ok := core.InitiateBatch(lv, u, r, &out)
		if ok {
			return msgs, dups, out
		}
		if msgs != 0 || dups != 0 || out.Len() != 0 || !lv.Equal(before) {
			t.Fatalf("self-loop reported msgs=%d dups=%d, wrote %d messages, view %v -> %v", msgs, dups, out.Len(), before, lv)
		}
	}
	t.Fatal("no send in 10000 attempts")
	return 0, 0, out
}

func TestConformance(t *testing.T) {
	for _, c := range table() {
		t.Run(c.name, func(t *testing.T) {
			t.Run("seed rules", func(t *testing.T) { seedRules(t, c) })
			t.Run("seeding a reused view", func(t *testing.T) { reseed(t, c) })
			t.Run("empty selection is a self-loop", func(t *testing.T) { selfLoop(t, c) })
			t.Run("message content", func(t *testing.T) { messageContent(t, c) })
			t.Run("full view", func(t *testing.T) { fullView(t, c) })
			t.Run("malformed and foreign packets", func(t *testing.T) { ignoresGarbage(t, c) })
			t.Run("replies", func(t *testing.T) { replyDiscipline(t, c) })
			t.Run("random driving keeps CheckView", func(t *testing.T) { randomDriving(t, c) })
		})
	}
}

func seedRules(t *testing.T, c conformant) {
	core := mustCore(t, c)
	if core.ViewSize() != c.s || core.Name() == "" {
		t.Fatalf("ViewSize = %d (want %d), Name = %q", core.ViewSize(), c.s, core.Name())
	}
	if err := core.SeedView(view.New(c.s), nil); err == nil {
		t.Error("no seeds accepted")
	}
	if c.minSeeds > 1 {
		if err := core.SeedView(view.New(c.s), distinctSeeds(c.minSeeds-1)); err == nil {
			t.Errorf("%d seeds accepted, minimum is %d", c.minSeeds-1, c.minSeeds)
		}
	}
	for _, k := range []int{c.minSeeds, c.minSeeds + 1, c.s, c.s + 3} {
		lv := mustSeed(t, core, k)
		want := min(k, c.s)
		if c.evenOnly {
			want &^= 1
		}
		if lv.Size() != c.s || lv.Outdegree() != want {
			t.Errorf("%d seeds: view of %d slots with outdegree %d, want %d and %d", k, lv.Size(), lv.Outdegree(), c.s, want)
		}
		for i, id := range distinctSeeds(want) {
			if !lv.Contains(id) {
				t.Errorf("%d seeds: seed %d (%v) missing from %v", k, i, id, lv)
			}
		}
		if err := core.CheckView(lv); err != nil {
			t.Errorf("%d seeds: seeded view fails CheckView: %v", k, err)
		}
	}
	// CheckView rejects a view whose cached outdegree lies; the parity
	// protocols also reject an odd outdegree.
	if c.evenOnly {
		odd := mustSeed(t, core, 4)
		odd.Clear(0)
		if err := core.CheckView(odd); err == nil {
			t.Error("odd outdegree passed CheckView")
		}
	}
}

// reseed seeds views whose storage served a node before: one emptied slot by
// slot after a run of steps, and one made by view.Empty over a dirty slice —
// how the sharded engine reuses a node's window of its slot array on every
// rejoin. Each must come out exactly as seeding a new view does.
func reseed(t *testing.T, c conformant) {
	core := mustCore(t, c)
	used := mustSeed(t, core, c.s)
	r := rng.New(7)
	var out protocol.Outbox
	for k := 0; k < 100; k++ {
		core.InitiateBatch(used, 0, r, &out)
		core.ReceiveBatch(used, 0, c.packet(2, peer.ID(30+k)), r, &out)
	}
	dirty := make([]peer.ID, c.s)
	for i := range dirty {
		dirty[i] = peer.ID(40 + i)
	}
	for _, k := range []int{c.minSeeds, c.s} {
		for i := 0; i < used.Size(); i++ {
			used.Clear(i)
		}
		empty := view.Empty(dirty)
		want := mustSeed(t, core, k)
		for name, lv := range map[string]*view.View{"cleared": used, "view.Empty": &empty} {
			if err := core.SeedView(lv, distinctSeeds(k)); err != nil {
				t.Fatalf("%s, %d seeds: %v", name, k, err)
			}
			if !lv.Equal(want) || lv.Outdegree() != want.Outdegree() {
				t.Errorf("%s, %d seeds: %v with outdegree %d, a new view seeds to %v with %d", name, k, lv, lv.Outdegree(), want, want.Outdegree())
			}
			if err := core.CheckView(lv); err != nil {
				t.Errorf("%s, %d seeds: %v", name, k, err)
			}
		}
	}
}

func selfLoop(t *testing.T, c conformant) {
	core := mustCore(t, c)
	// Two entries in eight slots: most selections hit an empty slot. send
	// asserts each of those is a self-loop.
	lv := mustSeed(t, core, 2)
	r := rng.New(1)
	loops := 0
	for k := 0; k < 50; k++ {
		var out protocol.Outbox
		if _, _, ok := core.InitiateBatch(lv.Clone(), 0, r, &out); !ok {
			loops++
		}
	}
	if loops == 0 {
		t.Fatal("no empty selection in 50 steps over a view with 6 of 8 slots empty")
	}
	send(t, core, lv, 0, r)
}

func messageContent(t *testing.T, c conformant) {
	core := mustCore(t, c)
	r := rng.New(2)
	// Above the floor: the message is [u, w] (or the protocol's payload)
	// to v, both taken from the view; the protocol's delete-on-send rule
	// decides what leaves the view.
	lv := mustSeed(t, core, 6)
	before := lv.Clone()
	msgs, dups, out := send(t, core, lv, 3, r)
	if msgs != 1 || out.Len() != 1 {
		t.Fatalf("one step appended %d messages, reported %d", out.Len(), msgs)
	}
	m := &out.Msgs[0]
	ids := out.MsgIDs(m)
	if m.From != 3 || m.Kind != c.kind || len(ids) != c.idsPerMsg {
		t.Fatalf("message %+v with ids %v, want kind %v from n3 with %d ids", *m, ids, c.kind, c.idsPerMsg)
	}
	v, w := m.To, ids[len(ids)-1]
	if !before.Contains(v) || !before.Contains(w) || v == w {
		t.Errorf("destination %v and payload %v are not two entries of %v", v, w, before)
	}
	if !c.payload(ids, 3, w) {
		t.Errorf("payload %v is not what node n3 sends for w=%v", ids, w)
	}
	if dups != 0 || m.Dup {
		t.Errorf("send above the floor flagged as duplication (dups=%d Dup=%v)", dups, m.Dup)
	}
	if got := before.Outdegree() - lv.Outdegree(); got != c.removed {
		t.Errorf("send removed %d entries, want %d", got, c.removed)
	}
	if c.removed >= 1 && lv.Contains(w) {
		t.Errorf("payload %v still in the view after a delete-on-send step", w)
	}
	if (c.removed == 2) == lv.Contains(v) {
		t.Errorf("destination %v in view = %v after a send removing %d entries", v, lv.Contains(v), c.removed)
	}
	if err := core.CheckView(lv); err != nil {
		t.Error(err)
	}
	if c.floor < 0 {
		return
	}
	// At the floor: the entries are kept and the message says so.
	lv = mustSeed(t, core, c.floor)
	before = lv.Clone()
	_, dups, out = send(t, core, lv, 3, r)
	if dups != 1 || !out.Msgs[0].Dup {
		t.Errorf("send at the floor: dups=%d Dup=%v, want 1 and true", dups, out.Msgs[0].Dup)
	}
	if lv.Outdegree() != before.Outdegree() {
		t.Errorf("send at the floor changed the outdegree %d -> %d", before.Outdegree(), lv.Outdegree())
	}
}

// packet builds the packet node from's initiate step would deliver for the
// payload entry w: [from, w], or just [w] for a single-id protocol.
func (c conformant) packet(from, w peer.ID) protocol.Packet {
	ids := []peer.ID{from, w}
	return protocol.Packet{Kind: c.kind, From: from, IDs: ids[2-c.idsPerMsg:]}
}

func fullView(t *testing.T, c conformant) {
	core := mustCore(t, c)
	r := rng.New(3)
	// Room for everything: all ids kept.
	lv := mustSeed(t, core, 2)
	var out protocol.Outbox
	if _, deleted := core.ReceiveBatch(lv, 1, c.packet(2, 30), r, &out); deleted != 0 {
		t.Errorf("deleted %d ids with six empty slots", deleted)
	}
	if !lv.Contains(30) {
		t.Errorf("received id missing from %v", lv)
	}
	// Full view: the protocol's overflow rule.
	lv = mustSeed(t, core, c.s)
	out.Reset()
	_, deleted := core.ReceiveBatch(lv, 1, c.packet(2, 30), r, &out)
	want := c.dropsWhenFull
	if deleted != want {
		t.Errorf("full view did not keep %d ids, want %d", deleted, want)
	}
	if want == 0 && (!lv.Contains(30) || !lv.Full()) {
		t.Errorf("a protocol that keeps every received id must evict for it: %v", lv)
	}
	if err := core.CheckView(lv); err != nil {
		t.Error(err)
	}
}

func ignoresGarbage(t *testing.T, c conformant) {
	core := mustCore(t, c)
	lv := mustSeed(t, core, 4)
	before := lv.Clone()
	r := rng.New(4)
	var out protocol.Outbox
	garbage := []protocol.Packet{
		{Kind: 99, From: 2, IDs: []peer.ID{2, 30}},
		{Kind: 99, From: 2, IDs: []peer.ID{30}},
		{Kind: 99, From: 2},
	}
	// Kinds the protocol does not speak, then its own kinds at a wrong
	// arity.
	switch c.kind {
	case protocol.KindGossip:
		garbage = append(garbage,
			protocol.Packet{Kind: protocol.KindRequest, From: 2, IDs: []peer.ID{2, 30}},
			protocol.Packet{Kind: protocol.KindReply, From: 2, IDs: []peer.ID{2, 30}})
	case protocol.KindRequest:
		garbage = append(garbage, protocol.Packet{Kind: protocol.KindGossip, From: 2, IDs: []peer.ID{2, 30}})
	}
	garbage = append(garbage, c.malformed...)
	for _, pkt := range garbage {
		replied, deleted := core.ReceiveBatch(lv, 1, pkt, r, &out)
		if replied || deleted != 0 || out.Len() != 0 || !lv.Equal(before) {
			t.Errorf("packet %+v: replied=%v deleted=%d messages=%d view %v -> %v", pkt, replied, deleted, out.Len(), before, lv)
		}
	}
}

func replyDiscipline(t *testing.T, c conformant) {
	core := mustCore(t, c)
	r := rng.New(5)
	lv := mustSeed(t, core, 4)
	var out protocol.Outbox
	replied, _ := core.ReceiveBatch(lv, 1, c.packet(2, 30), r, &out)
	if !c.replies {
		if replied || out.Len() != 0 {
			t.Errorf("one-way protocol replied (%d messages)", out.Len())
		}
		return
	}
	if !replied || out.Len() != 1 {
		t.Fatalf("request produced %d replies (replied=%v), want exactly one", out.Len(), replied)
	}
	m := &out.Msgs[0]
	if m.To != 2 || m.From != 1 || m.Kind != protocol.KindReply || m.IDLen == 0 {
		t.Errorf("reply %+v, want a KindReply from n1 back to n2 carrying ids", *m)
	}
	if err := core.CheckView(lv); err != nil {
		t.Error(err)
	}
	// A reply never begets a reply.
	reply := protocol.Packet{Kind: m.Kind, From: m.From, IDs: append([]peer.ID(nil), out.MsgIDs(m)...)}
	back := mustSeed(t, core, 2)
	out.Reset()
	if replied, _ := core.ReceiveBatch(back, 2, reply, r, &out); replied || out.Len() != 0 {
		t.Errorf("a reply begot %d messages", out.Len())
	}
	for _, id := range reply.IDs {
		if !back.Contains(id) {
			t.Errorf("returned id %v not stored in %v", id, back)
		}
	}
}

// randomDriving runs 10^4 random initiate/receive steps over four nodes,
// losing a fifth of the messages, and checks CheckView after every step.
func randomDriving(t *testing.T, c conformant) {
	const n = 4
	cores := make([]protocol.StepCore, n)
	views := make([]*view.View, n)
	for u := range cores {
		cores[u] = mustCore(t, c)
		seeds := make([]peer.ID, 0, n)
		for k := 1; k <= n; k++ {
			seeds = append(seeds, peer.ID((u+k)%n))
		}
		views[u] = view.New(c.s)
		if err := cores[u].SeedView(views[u], seeds); err != nil {
			t.Fatal(err)
		}
	}
	r := rng.New(6)
	var out, replies protocol.Outbox
	check := func(u peer.ID, what string, step int) {
		if err := cores[u].CheckView(views[u]); err != nil {
			t.Fatalf("step %d, %s at %v: %v", step, what, u, err)
		}
		if views[u].Size() != c.s {
			t.Fatalf("step %d, %s at %v: view resized to %d", step, what, u, views[u].Size())
		}
	}
	deliver := func(from *protocol.Outbox, to *protocol.Outbox, step int) {
		for i := range from.Msgs {
			m := &from.Msgs[i]
			if r.Bernoulli(0.2) || int(m.To) < 0 || int(m.To) >= n {
				continue
			}
			pkt := protocol.Packet{Kind: m.Kind, From: m.From, IDs: from.MsgIDs(m), Dup: m.Dup}
			cores[m.To].ReceiveBatch(views[m.To], m.To, pkt, r, to)
			check(m.To, "receive", step)
		}
	}
	for step := 0; step < 10000; step++ {
		u := peer.ID(r.Intn(n))
		out.Reset()
		replies.Reset()
		msgs, dups, ok := cores[u].InitiateBatch(views[u], u, r, &out)
		if msgs != out.Len() || dups > msgs || ok != (msgs > 0) {
			t.Fatalf("step %d: msgs=%d dups=%d ok=%v with %d messages in the outbox", step, msgs, dups, ok, out.Len())
		}
		check(u, "initiate", step)
		deliver(&out, &replies, step)
		out.Reset()
		deliver(&replies, &out, step)
		if out.Len() != 0 {
			t.Fatalf("step %d: a reply begot a reply", step)
		}
	}
}

// TestOutboxLend pins the accessor the message-at-a-time drivers send with:
// it hands out the step's one message without allocating, its ids lent from
// the outbox's own storage whether they sit inline in the header or in the
// arena, so the driver must keep the outbox untouched until the send is done.
func TestOutboxLend(t *testing.T) {
	var ob protocol.Outbox
	if _, _, ok := ob.Lend(); ok {
		t.Error("empty outbox yielded a message")
	}
	for _, ids := range [][]peer.ID{{7}, {7, 8}, {7, 8, 9, 10}} {
		ob.Reset()
		ob.Append(5, 3, protocol.KindReply, true, ids...)
		var (
			to  peer.ID
			msg protocol.Message
			ok  bool
		)
		if allocs := testing.AllocsPerRun(10, func() { to, msg, ok = ob.Lend() }); allocs != 0 {
			t.Errorf("%d ids: Lend allocates %v times, want 0", len(ids), allocs)
		}
		if !ok || to != 5 || msg.From != 3 || msg.Kind != protocol.KindReply || !msg.Dup || !slices.Equal(msg.IDs, ids) {
			t.Fatalf("Lend() = %v, %+v, %v; want the message to 5 with ids %v", to, msg, ok, ids)
		}
		if &msg.IDs[0] != &ob.MsgIDs(&ob.Msgs[0])[0] {
			t.Errorf("%d ids: Lend copied the ids, want them lent from the outbox", len(ids))
		}
	}
}

// TestOutboxSorted pins the outbox the sharded engine's steps append into: a
// message lands in the lane of its destination block through every Append
// form and every payload shape — inline (0, 1, 2 ids) and arena (3, 8, 255
// ids) — with header and ids intact, each lane in append order, also when a
// lane spills over several chunks of the shared pool that other lanes'
// chunks interleave with; Reset empties every lane; and a warm sequence
// allocates nothing, however its messages spread over the lanes. An id past
// the last lane panics.
func TestOutboxSorted(t *testing.T) {
	const shift, lanes = 3, 5 // lanes of 8 ids
	sizes := []int{2, 0, 3, 1, 255, 8, 2, 3, 255, 1, 2}
	type sent struct {
		to, from peer.ID
		kind     protocol.Kind
		dup      bool
		ids      []peer.ID
	}
	// 300 messages: lanes 0, 2 and 3 take about 100 each (seven chunks,
	// interleaved), lane 1 one message, lane 4 none.
	var seq []sent
	for i := 0; i < 300; i++ {
		to := peer.ID([]int{17, 0, 23, 7, 16, 1, 31, 18, 2, 19, 20, 24}[i%12])
		if i == 150 {
			to = 9
		}
		ids := make([]peer.ID, sizes[i%len(sizes)])
		for j := range ids {
			ids[j] = peer.ID(i*1000 + j)
		}
		seq = append(seq, sent{to, peer.ID(100 + i), protocol.Kind(i % 2), i%3 == 0, ids})
	}
	ob := protocol.Sorted(lanes, shift)
	fill := func(seq []sent) {
		ob.Reset()
		for i, m := range seq {
			switch n := len(m.ids); {
			case n == 1 && i%2 == 1:
				ob.Append1(m.to, m.from, m.kind, m.dup, m.ids[0])
			case n == 2 && i%2 == 0:
				ob.Append2(m.to, m.from, m.kind, m.dup, m.ids[0], m.ids[1])
			default:
				ob.Append(m.to, m.from, m.kind, m.dup, m.ids...)
			}
		}
	}
	check := func(seq []sent) {
		t.Helper()
		if ob.Len() != len(seq) {
			t.Errorf("Len() = %d, want %d", ob.Len(), len(seq))
		}
		for l := 0; l < lanes; l++ {
			var want []sent
			for _, m := range seq {
				if int(m.to)>>shift == l {
					want = append(want, m)
				}
			}
			lane := ob.Lane(l)
			at := 0
			for runs := lane.Runs(); ; {
				run := runs.Next()
				if run == nil {
					break
				}
				for i := range run {
					if at == len(want) {
						t.Fatalf("lane %d holds more than the %d messages addressed to it", l, len(want))
					}
					m, w := &run[i], want[at]
					at++
					if m.To != w.to || m.From != w.from || m.Kind != w.kind || m.Dup != w.dup {
						t.Fatalf("lane %d message %d: header %+v, want %+v", l, at-1, *m, w)
					}
					got := lane.MsgIDs(m)
					if len(got) != len(w.ids) {
						t.Fatalf("lane %d message %d: %d ids, want %d", l, at-1, len(got), len(w.ids))
					}
					for j := range got {
						if got[j] != w.ids[j] {
							t.Fatalf("lane %d message %d: ids %v, want %v", l, at-1, got, w.ids)
						}
					}
				}
			}
			if at != len(want) {
				t.Errorf("lane %d: the walk yielded %d messages, want %d", l, at, len(want))
			}
		}
	}
	fill(seq)
	check(seq)
	// The same load addressed the other way round — lane 0's to lane 3, lane
	// 1's to lane 2 and back — fits the capacity the first pass left behind.
	flipped := make([]sent, len(seq))
	for i, m := range seq {
		m.to = 31 - m.to
		flipped[i] = m
	}
	if avg := testing.AllocsPerRun(20, func() { fill(flipped) }); avg != 0 {
		t.Errorf("a warm sorter allocates %.1f times when its load moves to other lanes, want 0", avg)
	}
	check(flipped)
	fill(seq[:3])
	check(seq[:3])
	ob.Reset()
	check(nil)

	defer func() {
		if recover() == nil {
			t.Error("an id past the last lane was filed somewhere")
		}
	}()
	ob.Append2(40, 1, protocol.KindGossip, false, 1, 2)
}

// TestCountersFollowStepResults pins how the one tally maps step results.
func TestCountersFollowStepResults(t *testing.T) {
	var c protocol.Counters
	c.Initiated(0, 0, false)
	c.Initiated(1, 0, true)
	c.Initiated(1, 1, true)
	c.Received(false, 0)
	c.Received(true, 2)
	want := protocol.Counters{Ticks: 3, SelfLoops: 1, Sends: 2, Duplications: 1, Receives: 2, Replies: 1, DeletedIDs: 2}
	if c != want {
		t.Errorf("tally = %+v, want %+v", c, want)
	}
	sum := want
	sum.SendErrors = 4
	sum.Add(want)
	if sum.Ticks != 6 || sum.DeletedIDs != 4 || sum.SendErrors != 4 || sum.Replies != 2 {
		t.Errorf("Add = %+v", sum)
	}
}
