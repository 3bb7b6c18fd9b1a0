package driver

import (
	"reflect"
	"testing"

	"sendforget/internal/faults"
	"sendforget/internal/loss"
	"sendforget/internal/metrics"
	"sendforget/internal/peer"
	"sendforget/internal/protocol"
	"sendforget/internal/rng"
)

// conserved is the ledger identity every Route, RouteIn and Deliverable call
// must leave intact: each routed message is counted once under Sends and is
// then in exactly one place.
func conserved(t *testing.T, rt *Router, when string) {
	t.Helper()
	l := rt.Traffic()
	if l.Sends != l.Losses+l.Deliveries+l.DeadLetters+rt.Pending() {
		t.Fatalf("%s: sends %d != losses %d + deliveries %d + dead letters %d + pending %d",
			when, l.Sends, l.Losses, l.Deliveries, l.DeadLetters, rt.Pending())
	}
	if l.PartitionDrops > l.Losses {
		t.Fatalf("%s: partition drops exceed losses: %+v", when, l)
	}
}

func gossip(from peer.ID, ids ...peer.ID) protocol.Message {
	return protocol.Message{Kind: protocol.KindGossip, From: from, IDs: ids}
}

// liveSet is a mutable liveness predicate.
type liveSet map[peer.ID]bool

func (s liveSet) live(id peer.ID) bool { return s[id] }

func TestRouteVerdictsAgainstLedger(t *testing.T) {
	cond := faults.Lossless()
	cond.Partition([]peer.ID{0, 1, 2, 7}, []peer.ID{3})
	nodes := liveSet{0: true, 1: true, 2: true, 3: true}
	rt := NewRouter(cond, rng.New(1), nodes.live)

	steps := []struct {
		name     string
		from, to peer.ID
		want     Outcome
		after    metrics.Traffic
	}{
		{"plain delivery", 0, 1, Delivered, metrics.Traffic{Sends: 1, Deliveries: 1}},
		{"partition cuts", 0, 3, Dropped, metrics.Traffic{Sends: 2, Deliveries: 1, Losses: 1, PartitionDrops: 1}},
		{"departed destination", 0, 7, DeadLetter, metrics.Traffic{Sends: 3, Deliveries: 1, Losses: 1, PartitionDrops: 1, DeadLetters: 1}},
	}
	for _, st := range steps {
		if got := rt.Route(st.to, gossip(st.from, st.from, 9)); got != st.want {
			t.Fatalf("%s: outcome %v, want %v", st.name, got, st.want)
		}
		if got := rt.Traffic(); got != st.after {
			t.Fatalf("%s: ledger %+v, want %+v", st.name, got, st.after)
		}
		conserved(t, rt, st.name)
	}

	// The fault stack rules before liveness: a cut message to a departed
	// node is a loss, not a dead letter (node 7, on the sender's side of the
	// partition, dead-lettered above).
	delete(nodes, 3)
	if got := rt.Route(3, gossip(0, 0, 9)); got != Dropped {
		t.Fatalf("cut message to a departed node: %v, want Dropped", got)
	}
	conserved(t, rt, "cut and departed")

	// RouteIn rules exactly like Route, under the caller's session; a new
	// cut separates 1 from 2.
	cond.Partition([]peer.ID{0, 1, 3}, []peer.ID{2})
	ses := cond.Begin()
	in := []Outcome{
		rt.RouteIn(&ses, 1, gossip(0, 0, 9)),
		rt.RouteIn(&ses, 2, gossip(1, 1, 9)),
		rt.RouteIn(&ses, 3, gossip(0, 0, 9)),
	}
	ses.Close()
	if want := []Outcome{Delivered, Dropped, DeadLetter}; !reflect.DeepEqual(in, want) {
		t.Fatalf("RouteIn outcomes %v, want %v", in, want)
	}
	conserved(t, rt, "RouteIn")
}

// TestRouteByPlainMatchesRoute: under the paper's configuration — uniform
// loss and nothing else — RouteBy settles every message inline, through
// faults.Decider.Plain, and must rule exactly as Route does on a router
// whose stream is the decider's: the same outcome per message over live and
// departed destinations, and the same ledger.
func TestRouteByPlainMatchesRoute(t *testing.T) {
	cond, err := faults.FromRate(0.3)
	if err != nil {
		t.Fatal(err)
	}
	nodes := liveSet{}
	for id := peer.ID(0); id < 50; id += 3 {
		nodes[id] = true
	}
	var d faults.Decider
	cond.Attach(&d, 11)
	cond.Sync()
	if _, plain := d.Plain(); !plain {
		t.Fatal("uniform loss alone is not plain")
	}
	var d2 faults.Decider // Plain drew once above: a second seat starts level with Route
	cond.Attach(&d2, 11)
	cond.Sync()
	by, route := NewRouter(cond, nil, nodes.live), NewRouter(cond, rng.New(11), nodes.live)
	var ob protocol.Outbox
	for i := 0; i < 2000; i++ {
		ob.Reset()
		to := peer.ID(i % 50)
		ob.Append2(to, 1, protocol.KindGossip, false, 8, 9)
		m := &ob.Msgs[0]
		got := by.RouteBy(&d2, m, ob.MsgIDs(m), nodes.live(to))
		want := route.Route(to, protocol.Message{Kind: protocol.KindGossip, From: 1, IDs: []peer.ID{8, 9}})
		if got != want {
			t.Fatalf("message %d to %d: RouteBy %v, Route %v", i, to, got, want)
		}
	}
	if by.Traffic() != route.Traffic() {
		t.Fatalf("RouteBy ledger %+v, Route ledger %+v", by.Traffic(), route.Traffic())
	}
	conserved(t, by, "RouteBy")
}

// TestRouteByRulesOnHeaderInPlace: RouteBy takes a message as it lies in an
// outbox — the header by pointer, the ids as the outbox locates them, inline
// or in its arena — and must rule exactly like Route: the same outcomes, the
// same ledger, and a parked copy that carries every field (the dup mark and a
// five-id arena payload included) and outlives the outbox's Reset.
func TestRouteByRulesOnHeaderInPlace(t *testing.T) {
	cond := faults.Lossless()
	cond.Partition([]peer.ID{0, 1, 4}, []peer.ID{2, 3})
	nodes := liveSet{1: true, 2: true, 3: true}
	rt := NewRouter(cond, nil, nodes.live)
	var d faults.Decider
	cond.Attach(&d, 7)
	cond.Sync()

	var ob protocol.Outbox
	ob.Append2(1, 0, protocol.KindGossip, true, 8, 9)             // delivered
	ob.Append2(2, 1, protocol.KindGossip, false, 8, 9)            // the partition drops it
	ob.Append(4, 0, protocol.KindRequest, false, 5, 6, 7)         // node 4 is away
	ob.Append(3, 2, protocol.KindReply, true, 10, 11, 12, 13, 14) // parks, once a delay is set
	before := append([]protocol.FlatMsg(nil), ob.Msgs...)
	want := []Outcome{Delivered, Dropped, DeadLetter}
	for i, w := range want {
		m := &ob.Msgs[i]
		if got := rt.RouteBy(&d, m, ob.MsgIDs(m), nodes.live(m.To)); got != w {
			t.Fatalf("message %d: outcome %v, want %v", i, got, w)
		}
	}
	if err := cond.SetDelay(faults.Delay{Fixed: 1}); err != nil {
		t.Fatal(err)
	}
	cond.Sync()
	m := &ob.Msgs[3]
	if got := rt.RouteBy(&d, m, ob.MsgIDs(m), nodes.live(m.To)); got != Parked {
		t.Fatalf("delayed message: outcome %v, want Parked", got)
	}
	if !reflect.DeepEqual(ob.Msgs, before) {
		t.Fatalf("RouteBy wrote the headers it ruled on: %+v, were %+v", ob.Msgs, before)
	}
	wantLedger := metrics.Traffic{Sends: 4, Deliveries: 1, Losses: 1, PartitionDrops: 1, DeadLetters: 1, Delayed: 1}
	if got := rt.Traffic(); got != wantLedger || rt.Pending() != 1 {
		t.Fatalf("ledger %+v with %d pending, want %+v with 1", got, rt.Pending(), wantLedger)
	}
	conserved(t, rt, "RouteBy")

	ob.Reset() // the parked copy must not alias the outbox
	ob.Append(0, 0, protocol.KindGossip, false, 99, 99, 99, 99, 99)
	rt.Tick()
	h, ok := rt.Due()
	wantMsg := protocol.Message{Kind: protocol.KindReply, From: 2, IDs: []peer.ID{10, 11, 12, 13, 14}, Dup: true}
	if !ok || h.To != 3 || !reflect.DeepEqual(h.Msg, wantMsg) {
		t.Fatalf("Due = %+v, %v; want to 3, %+v", h, ok, wantMsg)
	}
}

// newRouterOver builds a router whose fault stack is nothing but the base
// model lm — what runtime.New hands the seq engine's router.
func newRouterOver(t *testing.T, lm loss.Model, seed int64, live func(peer.ID) bool) *Router {
	t.Helper()
	cond, err := faults.New(lm)
	if err != nil {
		t.Fatal(err)
	}
	return NewRouter(cond, rng.New(rng.Seed(seed)), live)
}

func TestRouteModelPath(t *testing.T) {
	// A bare base model under the stack: a uniform model, then a
	// destination-aware one.
	nodes := liveSet{0: true, 1: true}
	rt := newRouterOver(t, loss.MustUniform(0.3), 2, nodes.live)
	for i := 0; i < 2000; i++ {
		rt.Route(peer.ID(i%3), gossip(0, 0, 1)) // every third message dead-letters
		conserved(t, rt, "uniform model")
	}
	l := rt.Traffic()
	if rate := float64(l.Losses) / float64(l.Sends); rate < 0.25 || rate > 0.35 {
		t.Errorf("loss rate %.3f over %d sends, want ~0.3", rate, l.Sends)
	}
	if l.DeadLetters == 0 || l.Deliveries == 0 || l.Delayed != 0 {
		t.Errorf("ledger %+v: want deliveries and dead letters, nothing delayed", l)
	}

	perDest, err := loss.NewPerDest(0, map[peer.ID]float64{1: 1})
	if err != nil {
		t.Fatal(err)
	}
	rt = newRouterOver(t, perDest, 3, nodes.live)
	if got := rt.Route(0, gossip(1, 1, 0)); got != Delivered {
		t.Errorf("to the clean destination: %v", got)
	}
	if got := rt.Route(1, gossip(0, 0, 1)); got != Dropped {
		t.Errorf("to the lossy destination: %v", got)
	}
	conserved(t, rt, "per-destination model")
}

func TestParkedSurfaceInDueEnqueueOrder(t *testing.T) {
	cond := faults.Lossless()
	nodes := liveSet{0: true, 1: true, 2: true}
	rt := NewRouter(cond, rng.New(4), nodes.live)
	park := func(delay int, tag peer.ID, buf []peer.ID) {
		t.Helper()
		if err := cond.SetDelay(faults.Delay{Fixed: delay}); err != nil {
			t.Fatal(err)
		}
		if got := rt.Route(1, gossip(0, buf...)); got != Parked {
			t.Fatalf("message %v with delay %d: %v, want Parked", tag, delay, got)
		}
		conserved(t, rt, "park")
	}
	// Enqueue order a, b, c, d with due rounds 3, 1, 3, 2. The caller's
	// buffer is reused between sends: parked entries must own their ids.
	buf := []peer.ID{0, 100}
	for _, m := range []struct {
		delay int
		tag   peer.ID
	}{{3, 100}, {1, 101}, {3, 102}, {2, 103}} {
		buf[1] = m.tag
		park(m.delay, m.tag, buf)
	}
	buf[1] = -5
	if l := rt.Traffic(); l.Delayed != 4 || l.Deliveries != 0 || rt.Pending() != 4 {
		t.Fatalf("after parking: ledger %+v, pending %d", l, rt.Pending())
	}
	if _, ok := rt.Due(); ok {
		t.Fatal("a message surfaced before the clock advanced")
	}
	var order []peer.ID
	for round := 1; round <= 3; round++ {
		rt.Tick()
		for {
			h, ok := rt.Due()
			if !ok {
				break
			}
			if h.To != 1 || len(h.Msg.IDs) != 2 {
				t.Fatalf("surfaced %+v", h)
			}
			if !rt.Deliverable(h.To) {
				t.Fatalf("round %d: live destination not deliverable", round)
			}
			conserved(t, rt, "drain")
			order = append(order, h.Msg.IDs[1])
		}
		if want := map[int]int{1: 1, 2: 2, 3: 4}[round]; len(order) != want {
			t.Fatalf("after round %d: %d messages surfaced, want %d", round, len(order), want)
		}
	}
	// (due, enqueue): b at 1, d at 2, then a before c at 3.
	if want := []peer.ID{101, 103, 100, 102}; !reflect.DeepEqual(order, want) {
		t.Errorf("drain order %v, want %v", order, want)
	}
	if l := rt.Traffic(); l.Deliveries != 4 || rt.Pending() != 0 {
		t.Errorf("after drain: ledger %+v, pending %d", l, rt.Pending())
	}
}

func TestDeadLetterResolvedAtDrainTime(t *testing.T) {
	cond := faults.Lossless()
	if err := cond.SetDelay(faults.Delay{Fixed: 2}); err != nil {
		t.Fatal(err)
	}
	nodes := liveSet{0: true, 1: true, 2: true}
	rt := NewRouter(cond, rng.New(5), nodes.live)
	// Both destinations are live when the messages park; liveness is not
	// consulted then — node 9 is not live and parks all the same.
	for _, to := range []peer.ID{1, 2, 9} {
		if got := rt.Route(to, gossip(0, 0, to)); got != Parked {
			t.Fatalf("to %v: %v, want Parked", to, got)
		}
	}
	delete(nodes, 2) // leaves while its message is in flight
	nodes[9] = true  // joins while its message is in flight
	// A partition raised after parking does not reach parked messages: the
	// fault stack already ruled on them.
	cond.Partition([]peer.ID{0}, []peer.ID{1, 2, 9})
	rt.Tick()
	rt.Tick()
	got := map[peer.ID]bool{}
	for {
		h, ok := rt.Due()
		if !ok {
			break
		}
		got[h.To] = rt.Deliverable(h.To)
		conserved(t, rt, "drain")
	}
	if want := map[peer.ID]bool{1: true, 2: false, 9: true}; !reflect.DeepEqual(got, want) {
		t.Errorf("deliverable at drain time: %v, want %v", got, want)
	}
	l := rt.Traffic()
	if want := (metrics.Traffic{Sends: 3, Deliveries: 2, DeadLetters: 1, Delayed: 3}); l != want {
		t.Errorf("ledger %+v, want %+v", l, want)
	}
}

func TestBootstrapDegreeAndCirculant(t *testing.T) {
	for _, tc := range []struct {
		s, n, requested, want int
	}{
		{40, 1000, 0, 20}, // half the view
		{10, 1000, 0, 4},  // kept even
		{2, 1000, 0, 2},   // at least 2
		{40, 9, 0, 8},     // below n
		{40, 8, 0, 6},     // below n and even
		{40, 1000, 7, 7},  // a request is taken as given
	} {
		got, err := BootstrapDegree(tc.s, tc.n, tc.requested)
		if err != nil || got != tc.want {
			t.Errorf("BootstrapDegree(s=%d, n=%d, requested=%d) = %d, %v; want %d", tc.s, tc.n, tc.requested, got, err, tc.want)
		}
	}
	for _, requested := range []int{-1, 10, 11} {
		if _, err := BootstrapDegree(8, 10, requested); err == nil {
			t.Errorf("init degree %d accepted for n=10", requested)
		}
	}
	seeds := make([]peer.ID, 3)
	Circulant(8, 10, seeds)
	if want := []peer.ID{9, 0, 1}; !reflect.DeepEqual(seeds, want) {
		t.Errorf("Circulant(8, 10) = %v, want %v", seeds, want)
	}
}

// refEntry is one parked message as the reference model of the delay
// calendar remembers it: everything Due must give back, plus the (due, seq)
// key the drain order is defined by.
type refEntry struct {
	due, seq int
	to       peer.ID
	msg      protocol.Message // owns its ids
}

// calendarModel drives a Router and a sort-by-(due, enqueue) reference side
// by side and fails the test on the first divergence. held are the messages
// handed out and still inside their documented lifetime (until the next Due
// or DueBatch call, across Ticks and parks): they are compared with the
// reference again after every later call, so a chunk reused or overwritten
// too early shows up as a changed message.
type calendarModel struct {
	t     *testing.T
	rt    *Router
	cond  *faults.Conditions
	nodes liveSet
	clock int
	seq   int
	ref   []refEntry // always sorted by (due, seq)
	held  []heldEntry
}

// heldEntry is a message the router handed out, beside what the reference
// says it is.
type heldEntry struct {
	got  Held
	want refEntry
}

func (m *calendarModel) check(when string) {
	m.t.Helper()
	conserved(m.t, m.rt, when)
	if got := m.rt.Pending(); got != len(m.ref) {
		m.t.Fatalf("%s: pending %d, reference holds %d", when, got, len(m.ref))
	}
	for _, h := range m.held {
		m.same(when+" (held earlier)", h.got.To, h.got.Msg, h.want)
	}
}

func (m *calendarModel) same(when string, to peer.ID, msg protocol.Message, want refEntry) {
	m.t.Helper()
	if to != want.to || !reflect.DeepEqual(msg, want.msg) {
		m.t.Fatalf("%s: got to=%v %+v, reference (due %d, seq %d) has to=%v %+v",
			when, to, msg, want.due, want.seq, want.to, want.msg)
	}
}

// route sends one message with the given delay through Route or RouteIn and
// files it in the reference when it parks. The caller's id buffer is
// scribbled on afterwards: the calendar must own what it parked.
func (m *calendarModel) route(to peer.ID, delay, nIDs int, session bool) {
	m.t.Helper()
	if err := m.cond.SetDelay(faults.Delay{Fixed: delay}); err != nil {
		m.t.Fatal(err)
	}
	m.seq++
	ids := make([]peer.ID, nIDs)
	for i := range ids {
		ids[i] = peer.ID(1000*m.seq + i)
	}
	msg := protocol.Message{Kind: protocol.KindGossip, From: peer.ID(m.seq % 7), IDs: ids, Dup: m.seq%3 == 0}
	var got Outcome
	if session {
		ses := m.cond.Begin()
		got = m.rt.RouteIn(&ses, to, msg)
		ses.Close()
	} else {
		got = m.rt.Route(to, msg)
	}
	switch {
	case got == Dropped:
	case delay > 0:
		if got != Parked {
			m.t.Fatalf("delay %d: %v, want Parked", delay, got)
		}
		own := msg
		own.IDs = append([]peer.ID(nil), ids...)
		e := refEntry{due: m.clock + delay, seq: m.seq, to: to, msg: own}
		at := len(m.ref)
		for at > 0 && m.ref[at-1].due > e.due {
			at--
		}
		m.ref = append(m.ref, refEntry{})
		copy(m.ref[at+1:], m.ref[at:])
		m.ref[at] = e
	case m.nodes[to] != (got == Delivered) || !m.nodes[to] != (got == DeadLetter):
		m.t.Fatalf("undelayed to %v (live %v): %v", to, m.nodes[to], got)
	}
	for i := range ids {
		ids[i] = -1
	}
	m.check("route")
}

func (m *calendarModel) tick() {
	m.rt.Tick()
	m.clock++
	m.check("tick")
}

// expire ends the lifetime of every held message: a Due or DueBatch call
// may release the round they came due in, and a later park reuse its chunks.
func (m *calendarModel) expire() {
	m.held = m.held[:0]
}

// resolve does what every substrate does with a surfaced message: settle its
// liveness at drain time.
func (m *calendarModel) resolve(to peer.ID, msg protocol.Message, want refEntry) {
	m.t.Helper()
	m.same("drain", to, msg, want)
	if got := m.rt.Deliverable(to); got != m.nodes[to] {
		m.t.Fatalf("deliverable(%v) = %v with live = %v", to, got, m.nodes[to])
	}
}

// dueOne calls Due once and reports whether a message surfaced.
func (m *calendarModel) dueOne() bool {
	m.t.Helper()
	m.expire()
	if len(m.ref) == 0 || m.ref[0].due > m.clock {
		if h, ok := m.rt.Due(); ok {
			m.t.Fatalf("Due surfaced %+v, reference has nothing due at clock %d", h, m.clock)
		}
		m.check("empty due")
		return false
	}
	want := m.ref[0]
	h, ok := m.rt.Due()
	if !ok {
		m.t.Fatalf("Due is empty at clock %d, reference has (due %d, seq %d)", m.clock, want.due, want.seq)
	}
	m.ref = m.ref[1:]
	m.resolve(h.To, h.Msg, want)
	m.held = append(m.held, heldEntry{h, want})
	m.check("due")
	return true
}

// dueBatch calls DueBatch once: everything left of the oldest due round,
// walked run by run.
func (m *calendarModel) dueBatch() {
	m.t.Helper()
	m.expire()
	runs, ok := m.rt.DueBatch()
	if len(m.ref) == 0 || m.ref[0].due > m.clock {
		if ok {
			m.t.Fatalf("DueBatch surfaced %v, reference has nothing due at clock %d", runs.Next(), m.clock)
		}
		m.check("empty batch")
		return
	}
	round := m.ref[0].due
	if !ok {
		m.t.Fatalf("DueBatch is empty at clock %d, reference has round %d due", m.clock, round)
	}
	for run := runs.Next(); run != nil; run = runs.Next() {
		if len(run) > protocol.MaxRun {
			m.t.Fatalf("DueBatch handed out a run of %d messages, more than %d", len(run), protocol.MaxRun)
		}
		for i := range run {
			if len(m.ref) == 0 || m.ref[0].due != round {
				m.t.Fatalf("DueBatch handed out more messages of round %d than the reference holds", round)
			}
			want := m.ref[0]
			m.ref = m.ref[1:]
			fm := &run[i]
			msg := protocol.Message{Kind: fm.Kind, From: fm.From, IDs: runs.MsgIDs(fm), Dup: fm.Dup}
			m.resolve(fm.To, msg, want)
			m.held = append(m.held, heldEntry{Held{To: fm.To, Msg: msg}, want})
		}
	}
	if len(m.ref) > 0 && m.ref[0].due == round {
		m.t.Fatalf("DueBatch left (due %d, seq %d) of round %d behind", m.ref[0].due, m.ref[0].seq, round)
	}
	m.check("batch")
}

// TestCalendarMatchesSortedReference is the delay calendar's model test:
// random interleavings of Route and RouteIn with delays from 0 to three
// times the initial ring, Tick with and without a drain after it, Due one
// message at a time and DueBatch, and destinations leaving and joining while
// their messages are in flight — every call checked against a reference
// that sorts by (due, enqueue), with Sends = Losses + Deliveries +
// DeadLetters + Pending after each.
func TestCalendarMatchesSortedReference(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		cond, err := faults.FromRate(0.1)
		if err != nil {
			t.Fatal(err)
		}
		m := &calendarModel{t: t, cond: cond, nodes: liveSet{}}
		for id := peer.ID(0); id < 6; id++ {
			m.nodes[id] = id%2 == 0
		}
		m.rt = NewRouter(cond, rng.New(rng.Seed(seed)), m.nodes.live)
		r := rng.New(rng.Seed(1000 + seed))
		// Early seeds stay inside the initial ring, later ones reach three
		// times past it, so both the no-growth and the growth paths see long
		// runs.
		maxDelay := 3 * minRing
		if seed <= 5 {
			maxDelay = minRing - 1
		}
		for step := 0; step < 1500; step++ {
			switch op := r.Intn(20); {
			case op < 9:
				m.route(peer.ID(r.Intn(8)), r.Intn(maxDelay+1), 1+r.Intn(5), r.Intn(2) == 0)
			case op < 12:
				m.tick() // possibly several in a row: the drain falls behind
			case op < 14:
				m.tick()
				for m.dueOne() {
				}
			case op < 16:
				m.tick()
				m.dueBatch()
			case op < 18:
				// Part of a round one message at a time, the rest as a batch
				// — or left half-drained for whatever comes next.
				for k := r.Intn(4); k > 0 && m.dueOne(); k-- {
				}
				if r.Intn(2) == 0 {
					m.dueBatch()
				}
			default:
				id := peer.ID(r.Intn(8))
				m.nodes[id] = !m.nodes[id]
			}
		}
		for len(m.ref) > 0 {
			m.tick()
			for m.dueOne() {
			}
		}
		if l := m.rt.Traffic(); !l.Conserved() || l.Delayed == 0 || l.DeadLetters == 0 || l.Losses == 0 {
			t.Errorf("seed %d: final ledger %+v: want conserved with delays, dead letters and losses", seed, l)
		}
	}
}

// TestCalendarGrowsUnderHalfDrainedBucket pins the first round-lifetime
// rule: the round a drain is reading counts toward the ring's span. A
// message parked mid-drain with a delay equal to the ring length maps to the
// very slot being drained; it must grow the ring (moving the half-drained
// round with the drain's place in it) instead of joining that round — where
// the drain's release would drop it and Pending would never reach zero.
func TestCalendarGrowsUnderHalfDrainedBucket(t *testing.T) {
	cond := faults.Lossless()
	rt := NewRouter(cond, rng.New(7), func(peer.ID) bool { return true })
	park := func(delay int, tag peer.ID) {
		t.Helper()
		if err := cond.SetDelay(faults.Delay{Fixed: delay}); err != nil {
			t.Fatal(err)
		}
		if got := rt.Route(1, gossip(0, tag, tag+1, tag+2)); got != Parked {
			t.Fatalf("message %v: %v, want Parked", tag, got)
		}
	}
	park(1, 10)
	park(1, 20)
	park(2, 30)
	if len(rt.ring) != minRing {
		t.Fatalf("ring length %d after small delays, want %d", len(rt.ring), minRing)
	}
	rt.Tick()
	first, ok := rt.Due()
	if !ok || first.Msg.IDs[0] != 10 {
		t.Fatalf("first due: %+v %v", first, ok)
	}
	// Mid-drain, as a reply to the message just delivered would be.
	for ring := len(rt.ring); ring <= 4*minRing; ring = len(rt.ring) {
		park(ring, peer.ID(100*ring))
		if len(rt.ring) <= ring {
			t.Fatalf("delay %d did not grow a ring of %d", ring, ring)
		}
	}
	if want := []peer.ID{10, 11, 12}; !reflect.DeepEqual(first.Msg.IDs, want) {
		t.Errorf("held message changed under growth: %v, want %v", first.Msg.IDs, want)
	}
	second, ok := rt.Due()
	if !ok || second.Msg.IDs[0] != 20 {
		t.Fatalf("the drain lost its place across growth: %+v %v", second, ok)
	}
	if _, ok := rt.Due(); ok {
		t.Fatal("a message of a later round surfaced")
	}
	var order []peer.ID
	for rounds := 0; rt.Pending() > 0; rounds++ {
		if rounds > 10*minRing {
			t.Fatalf("pending stuck at %d", rt.Pending())
		}
		rt.Tick()
		for {
			h, ok := rt.Due()
			if !ok {
				break
			}
			rt.Deliverable(h.To)
			order = append(order, h.Msg.IDs[0])
		}
	}
	if want := []peer.ID{30, 400, 800, 1600}; !reflect.DeepEqual(order, want) {
		t.Errorf("drain order after growth %v, want %v", order, want)
	}
}

// TestCalendarSteadyStateDoesNotAllocate is the router's share of the
// zero-alloc tick: once the chunk pool and every round's arena have seen the
// traffic's high-water mark, parking and draining — by message or by batch —
// never reach the allocator.
func TestCalendarSteadyStateDoesNotAllocate(t *testing.T) {
	cond := faults.Lossless()
	if err := cond.SetDelay(faults.Delay{Fixed: 1, Jitter: 2}); err != nil {
		t.Fatal(err)
	}
	rt := NewRouter(cond, rng.New(9), func(peer.ID) bool { return true })
	ids := []peer.ID{1, 2, 3, 4}
	round := func() {
		ses := cond.Begin()
		for i := 0; i < 512; i++ {
			rt.RouteIn(&ses, peer.ID(i), protocol.Message{Kind: protocol.KindGossip, From: 0, IDs: ids[:1+i%4]})
		}
		ses.Close()
		rt.Tick()
		if h, ok := rt.Due(); ok {
			rt.Deliverable(h.To)
		}
		if runs, ok := rt.DueBatch(); ok {
			for run := runs.Next(); run != nil; run = runs.Next() {
				for i := range run {
					rt.Deliverable(run[i].To)
				}
			}
		}
	}
	for i := 0; i < 64; i++ {
		round()
	}
	if avg := testing.AllocsPerRun(50, round); avg != 0 {
		t.Errorf("steady-state park and drain allocate %.1f times per round, want 0", avg)
	}
	conserved(t, rt, "steady state")
}

// TestParkedArenaPayloadsSurviveDueBatch sends payloads of 3, 8 and 255 ids —
// each one's offset into its round's arena kept in the header's IDs[0] —
// through a park and a DueBatch: they surface from the round's runs with
// every id intact, although the caller's buffer was overwritten after each
// send.
func TestParkedArenaPayloadsSurviveDueBatch(t *testing.T) {
	cond := faults.Lossless()
	if err := cond.SetDelay(faults.Delay{Fixed: 1}); err != nil {
		t.Fatal(err)
	}
	rt := NewRouter(cond, rng.New(5), func(peer.ID) bool { return true })
	sizes := []int{3, 8, 255, 2, 255, 8, 3}
	buf := make([]peer.ID, 255)
	for i, n := range sizes {
		for j := range buf[:n] {
			buf[j] = peer.ID(i<<8 | j)
		}
		if got := rt.Route(peer.ID(i), gossip(7, buf[:n]...)); got != Parked {
			t.Fatalf("message %d: %v, want Parked", i, got)
		}
		clear(buf)
	}
	rt.Tick()
	runs, ok := rt.DueBatch()
	var due []protocol.FlatMsg
	for run := runs.Next(); run != nil; run = runs.Next() {
		due = append(due, run...)
	}
	if !ok || len(due) != len(sizes) {
		t.Fatalf("DueBatch surfaced %v (ok %v), want %d messages", due, ok, len(sizes))
	}
	for i, n := range sizes {
		m := &due[i]
		ids := runs.MsgIDs(m)
		if m.To != peer.ID(i) || m.From != 7 || int(m.IDLen) != n || len(ids) != n {
			t.Fatalf("message %d: header %+v with %d ids, want %d", i, *m, len(ids), n)
		}
		for j, id := range ids {
			if id != peer.ID(i<<8|j) {
				t.Fatalf("message %d: id %d = %d, want %d", i, j, id, i<<8|j)
			}
		}
		if !rt.Deliverable(m.To) {
			t.Fatalf("message %d: live destination not deliverable", i)
		}
	}
	conserved(t, rt, "drain")
}

// TestCalendarRandomSchedules is the model test at the calendar's extremes:
// delays from 0 to 9 (past the initial ring, so it grows — also mid-drain,
// where a reply to a drained message parks), arena payloads of 3 to 255 ids,
// drains that run one message at a time, a round at a time, or switch from
// one to the other inside a round, and stretches with nothing in flight.
// Every call is checked against the sorted reference, and every message
// handed out is checked again after each later call of its lifetime.
func TestCalendarRandomSchedules(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		cond, err := faults.FromRate(0.05)
		if err != nil {
			t.Fatal(err)
		}
		m := &calendarModel{t: t, cond: cond, nodes: liveSet{}}
		for id := peer.ID(0); id < 8; id++ {
			m.nodes[id] = id%3 != 0
		}
		m.rt = NewRouter(cond, rng.New(rng.Seed(seed)), m.nodes.live)
		r := rng.New(rng.Seed(2000 + seed))
		park := func() {
			m.route(peer.ID(r.Intn(8)), r.Intn(10), 3+r.Intn(253), r.Intn(2) == 0)
		}
		for step := 0; step < 600; step++ {
			switch op := r.Intn(10); {
			case op < 4:
				park()
			case op < 6:
				// A drain that parks as it goes, one message at a time or a
				// round at a time, switching between the two.
				m.tick()
				for {
					if r.Intn(2) == 0 {
						if !m.dueOne() {
							break
						}
					} else if m.dueBatch(); len(m.ref) == 0 || m.ref[0].due > m.clock {
						break
					}
					if r.Intn(3) == 0 {
						park()
					}
				}
			case op < 8:
				m.tick()
				for k := r.Intn(3); k > 0 && m.dueOne(); k-- {
				}
				m.dueBatch()
			case op < 9:
				for k := r.Intn(8); k > 0; k-- {
					m.tick() // the drain falls behind, or nothing is in flight
				}
			default:
				id := peer.ID(r.Intn(8))
				m.nodes[id] = !m.nodes[id]
			}
		}
		for len(m.ref) > 0 {
			m.tick()
			m.dueBatch()
		}
		if len(m.rt.ring) <= minRing {
			t.Errorf("seed %d: ring of %d rounds never grew past delays up to 9", seed, len(m.rt.ring))
		}
		if l := m.rt.Traffic(); !l.Conserved() || l.Delayed == 0 {
			t.Errorf("seed %d: final ledger %+v: want conserved with delays", seed, l)
		}
	}
}

// poolCap is the number of headers the calendar holds room for.
func poolCap(rt *Router) int {
	n := 0
	for _, s := range rt.slabs {
		n += cap(s) * protocol.MaxRun
	}
	return n
}

// TestCalendarCapacityTracksPending holds the calendar's memory to its
// traffic. Under Jitter 2 a round's messages come due over three rounds, and
// the number routed each round wanders between 100 and 700: what the
// calendar must hold is the pending count at its peak, plus at most a part-
// filled chunk per round and the rest of a slab. A ring of per-round buckets
// that keep their capacity holds the largest round in every bucket instead.
func TestCalendarCapacityTracksPending(t *testing.T) {
	cond := faults.Lossless()
	if err := cond.SetDelay(faults.Delay{Fixed: 1, Jitter: 2}); err != nil {
		t.Fatal(err)
	}
	rt := NewRouter(cond, rng.New(3), func(peer.ID) bool { return true })
	r := rng.New(4)
	peak := 0
	for round := 0; round < 300; round++ {
		ses := cond.Begin()
		for i, k := 0, 100+r.Intn(601); i < k; i++ {
			rt.RouteIn(&ses, peer.ID(i), gossip(0, 1, 2))
		}
		ses.Close()
		peak = max(peak, rt.Pending())
		if bound := peak + 2*protocol.MaxRun*len(rt.ring); round >= 30 && poolCap(rt) > bound {
			t.Fatalf("round %d: the calendar holds room for %d headers, more than the pending peak %d plus two chunks for each of %d rounds (%d)",
				round, poolCap(rt), peak, len(rt.ring), bound)
		}
		rt.Tick()
		for {
			runs, ok := rt.DueBatch()
			if !ok {
				break
			}
			for run := runs.Next(); run != nil; run = runs.Next() {
				for i := range run {
					rt.Deliverable(run[i].To)
				}
			}
		}
	}
	conserved(t, rt, "capacity")
}

// TestCalendarIdleTicksKeepRing: rounds in which nothing is in flight and
// nothing drains do not count toward the ring's span. After a thousand idle
// Ticks, a park with the delay the ring was built for lands in the ring as
// it is.
func TestCalendarIdleTicksKeepRing(t *testing.T) {
	cond := faults.Lossless()
	if err := cond.SetDelay(faults.Delay{Fixed: 2}); err != nil {
		t.Fatal(err)
	}
	rt := NewRouter(cond, rng.New(6), func(peer.ID) bool { return true })
	rt.Route(1, gossip(0, 5, 6))
	rt.Tick()
	rt.Tick()
	h, ok := rt.Due()
	if !ok || h.Msg.IDs[1] != 6 {
		t.Fatalf("due: %+v %v", h, ok)
	}
	rt.Deliverable(h.To)
	for i := 0; i < 1000; i++ {
		rt.Tick()
	}
	if got := rt.Route(1, gossip(0, 7, 8)); got != Parked {
		t.Fatalf("park after idle ticks: %v", got)
	}
	if !reflect.DeepEqual(h.Msg.IDs, []peer.ID{5, 6}) {
		t.Errorf("message held across idle ticks changed: %v", h.Msg.IDs)
	}
	if len(rt.ring) != minRing {
		t.Errorf("ring of %d rounds after idle ticks, want %d", len(rt.ring), minRing)
	}
	rt.Tick()
	rt.Tick()
	if h, ok := rt.Due(); !ok || h.Msg.IDs[1] != 8 || !rt.Deliverable(h.To) {
		t.Fatalf("due after idle ticks: %+v %v", h, ok)
	}
	conserved(t, rt, "idle")
}
