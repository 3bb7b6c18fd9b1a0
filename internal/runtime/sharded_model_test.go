package runtime_test

import (
	"fmt"
	"testing"

	"sendforget/internal/faults"
	"sendforget/internal/loss"
	"sendforget/internal/metrics"
	"sendforget/internal/peer"
	"sendforget/internal/protocol"
	"sendforget/internal/rng"
	"sendforget/internal/runtime"
	"sendforget/internal/view"
)

// probeNet is what the probe cores of one cluster share with the test: one
// slot per node, each written only by the worker that owns the node's shard
// and read by the test between engine calls.
type probeNet struct {
	n    int
	hot  []peer.ID     // destinations drawn half the time: the bitset's edge ids
	sent []probeFlight // the message node u initiated in the last tick; to == peer.Nil: none
	recv []int         // messages node u received
	bad  []int         // of those, messages whose payload did not arrive intact
}

// probeFlight is one probe message as the model tracks it.
type probeFlight struct {
	due      int
	to, from peer.ID
	request  bool // a request is answered with a reply to from
}

// probeSizes are the payload lengths the probe cores send: inline and arena.
var probeSizes = []int{0, 1, 2, 3, 8}

// probeCore is a step core whose traffic a test can predict exactly: every
// initiate step sends one message to a destination drawn from the whole id
// universe — away nodes, the sender itself and the bitset's edge ids included
// — and records it; every receive step counts the message at the receiver,
// checks that the payload ([from, from+1, ...]) survived the trip, and
// answers a request with a three-id reply.
type probeCore struct{ net *probeNet }

func (c probeCore) Name() string               { return "probe" }
func (c probeCore) ViewSize() int              { return 4 }
func (c probeCore) CheckView(*view.View) error { return nil }
func (c probeCore) payload(u peer.ID, k int) []peer.ID {
	ids := make([]peer.ID, k)
	for i := range ids {
		ids[i] = u + peer.ID(i)
	}
	return ids
}

func (c probeCore) SeedView(seeds []peer.ID) (*view.View, error) {
	v := view.New(c.ViewSize())
	for i := 0; i < len(seeds) && i < v.Size(); i++ {
		v.Set(i, seeds[i])
	}
	return v, nil
}

func (c probeCore) InitiateBatch(_ *view.View, u peer.ID, r *rng.RNG, out *protocol.Outbox) (int, int, bool) {
	to := peer.ID(r.Intn(c.net.n))
	if r.Intn(2) == 0 {
		to = c.net.hot[r.Intn(len(c.net.hot))]
	}
	kind, request := protocol.KindGossip, r.Intn(2) == 0
	if request {
		kind = protocol.KindRequest
	}
	out.Append(to, u, kind, false, c.payload(u, probeSizes[r.Intn(len(probeSizes))])...)
	c.net.sent[u] = probeFlight{to: to, from: u, request: request}
	return 1, 0, true
}

func (c probeCore) ReceiveBatch(_ *view.View, u peer.ID, pkt protocol.Packet, _ *rng.RNG, out *protocol.Outbox) (bool, int) {
	c.net.recv[u]++
	for i, id := range pkt.IDs {
		if id != pkt.From+peer.ID(i) {
			c.net.bad[u]++
			break
		}
	}
	if pkt.Kind != protocol.KindRequest {
		return false, 0
	}
	out.Append(pkt.From, u, protocol.KindReply, false, c.payload(u, 3)...)
	return true, 0
}

// probeModel predicts the probe cluster: liveness, the messages in flight
// under a fixed delay, and what every node and the ledger must have counted.
type probeModel struct {
	delay, clock int
	live         []bool
	queue        []probeFlight
	recv         []int
	ticks, sends int
	deliveries   int
	dead         int
	replies      int
}

// route rules on one message the way the router does under a lossless stack
// with a fixed delay: park it, or resolve it against liveness now.
func (m *probeModel) route(f probeFlight) {
	m.sends++
	if m.delay > 0 {
		f.due = m.clock + m.delay
		m.queue = append(m.queue, f)
		return
	}
	m.deliver(f)
}

func (m *probeModel) deliver(f probeFlight) {
	if !m.live[f.to] {
		m.dead++
		return
	}
	m.deliveries++
	m.recv[f.to]++
	if f.request {
		m.replies++
		m.route(probeFlight{to: f.from, from: f.to})
	}
}

// advance moves the clock one round and delivers what came due.
func (m *probeModel) advance() {
	m.clock++
	var later []probeFlight
	due := m.queue
	m.queue = nil
	for _, f := range due {
		if f.due <= m.clock {
			m.deliver(f) // a reply parks into m.queue, due later
		} else {
			later = append(later, f)
		}
	}
	m.queue = append(later, m.queue...)
}

// TestShardedLivenessModel drives the sharded engine and an exact model of
// it through seeded random AddNode / RemoveNode / TickRound / DrainDelayed
// schedules, at cluster sizes that put the bitset's last word in every state
// (n = 63, 64, 65: one bit short of a word, exactly one, one over; 255, 300,
// 1000: a partly used last word) and with ids 0, 63, 64 and n-1 drawn half
// the time as churn victims and as destinations. The probe cores make every
// destination known, so after every operation the engine must agree with the
// model exactly: Views()[u] is nil iff u is away (the snapshot's read), the
// nodes that initiated are the live ones (the initiate phase's read), AddNode
// refuses a live node (its read), and — the router's reads, at route time
// without a delay and at drain time with one — a message to an away node is
// one dead letter and no receive, per node, and a rejoined node receives
// again.
//
// Shard sizes 16, 64 and 256 put a shard's window of the node records, the
// slot slab and the bitset at every alignment: several shards to a bitset
// word, exactly one word, and (256 is the default size) four words — with a
// short last shard at every n, and at n = 63/64/65/255 under size 256 a
// single partial one.
func TestShardedLivenessModel(t *testing.T) {
	for _, n := range []int{63, 64, 65, 255, 300, 1000} {
		for _, shardSize := range []int{16, 64, 256} {
			for _, delay := range []int{0, 2} {
				name := fmt.Sprintf("n=%d/delay=%d", n, delay)
				if shardSize != 16 {
					name += fmt.Sprintf("/shard=%d", shardSize)
				}
				t.Run(name, func(t *testing.T) { runLivenessModel(t, n, shardSize, delay) })
			}
		}
	}
}

func runLivenessModel(t *testing.T, n, shardSize, delay int) {
	net := &probeNet{
		n: n, sent: make([]probeFlight, n), recv: make([]int, n), bad: make([]int, n),
		hot: []peer.ID{0, peer.ID(min(62, n-1)), peer.ID(min(63, n-1)), peer.ID(min(64, n-1)), peer.ID(n - 2), peer.ID(n - 1)},
	}
	cond := faults.Lossless()
	if err := cond.SetDelay(faults.Delay{Fixed: delay}); err != nil {
		t.Fatal(err)
	}
	e, err := newSharded(runtime.Config{
		N: n, Conditions: cond, Seed: int64(n + delay), ShardSize: shardSize, Workers: 4,
		NewCore: func() (protocol.StepCore, error) { return probeCore{net}, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	m := &probeModel{delay: delay, live: make([]bool, n), recv: make([]int, n)}
	for u := range m.live {
		m.live[u] = true
	}
	r := rng.New(int64(7*n + delay))
	pick := func() peer.ID {
		if r.Intn(2) == 0 {
			return net.hot[r.Intn(len(net.hot))]
		}
		return peer.ID(r.Intn(n))
	}
	seeds := []peer.ID{0, 1}

	check := func(op string) {
		t.Helper()
		for u, v := range e.Views() {
			if (v == nil) == m.live[u] {
				t.Fatalf("%s: Views()[%d] nil = %v, model live = %v", op, u, v == nil, m.live[u])
			}
		}
		for u := range m.recv {
			if net.recv[u] != m.recv[u] || net.bad[u] != 0 {
				t.Fatalf("%s: node %d (live %v) received %d messages (%d damaged), model says %d", op, u, m.live[u], net.recv[u], net.bad[u], m.recv[u])
			}
		}
		tr, cnt := e.Traffic(), e.Counters()
		delayed := 0
		if delay > 0 {
			delayed = m.sends
		}
		if tr.Sends != m.sends || tr.Deliveries != m.deliveries || tr.DeadLetters != m.dead || tr.Losses != 0 || tr.Delayed != delayed {
			t.Fatalf("%s: ledger %+v, model sends %d deliveries %d dead letters %d delayed %d", op, tr, m.sends, m.deliveries, m.dead, delayed)
		}
		if cnt.Ticks != m.ticks || cnt.Receives != m.deliveries || cnt.Replies != m.replies || cnt.Sends+cnt.Replies != m.sends {
			t.Fatalf("%s: counters %+v, model ticks %d receives %d replies %d sends %d", op, cnt, m.ticks, m.deliveries, m.replies, m.sends)
		}
		if p := e.Pending(); p != len(m.queue) {
			t.Fatalf("%s: %d pending, model has %d in flight", op, p, len(m.queue))
		}
	}
	tick := func() {
		for u := range net.sent {
			net.sent[u].to = peer.Nil
		}
		e.TickRound()
		m.advance()
		for u, f := range net.sent {
			if (f.to != peer.Nil) != m.live[u] {
				t.Fatalf("tick: node %d initiated = %v, model live = %v", u, f.to != peer.Nil, m.live[u])
			}
			if m.live[u] {
				m.ticks++
				m.route(f)
			}
		}
		check("tick")
	}
	remove := func(u peer.ID) {
		e.RemoveNode(u)
		m.live[u] = false
		check(fmt.Sprintf("remove %d", u))
	}
	add := func(u peer.ID) {
		err := e.AddNode(u, seeds, false)
		if (err == nil) == m.live[u] {
			t.Fatalf("AddNode(%d) = %v with the node live = %v", u, err, m.live[u])
		}
		m.live[u] = true
		check(fmt.Sprintf("add %d", u))
	}
	drain := func() {
		e.DrainDelayed()
		for len(m.queue) > 0 {
			m.advance()
		}
		check("drain")
		if tr := e.Traffic(); !tr.Conserved() {
			t.Fatalf("ledger not conserved after drain: %+v", tr)
		}
	}

	// Scripted opening: the first and the last id leave, stay away long
	// enough to be sent to, rejoin, and must be receiving again.
	first, last := peer.ID(0), peer.ID(n-1)
	tick()
	remove(first)
	remove(last)
	for i := 0; i < 4+delay; i++ {
		tick()
	}
	if m.dead == 0 {
		t.Fatal("no message was sent to an away node; the schedule does not exercise the dead-letter path")
	}
	add(first)
	add(last)
	before := [2]int{m.recv[first], m.recv[last]}
	for i := 0; i < 4+delay; i++ {
		tick()
	}
	if m.recv[first] == before[0] || m.recv[last] == before[1] {
		t.Fatalf("rejoined nodes received %d and %d messages; the schedule does not exercise the rejoin path", m.recv[first]-before[0], m.recv[last]-before[1])
	}

	for op := 0; op < 200; op++ {
		switch k := r.Intn(20); {
		case k < 10:
			tick()
		case k < 14:
			remove(pick())
		case k < 18:
			add(pick()) // live or away: AddNode must tell them apart
		case k < 19:
			remove(pick())
			remove(pick())
			remove(pick())
		default:
			drain()
		}
	}
	drain()
}

// TestShardedRepliesUnderDelay is the case the two alternating reply sets
// used to cover, held against the single one: under Delay{Fixed: 1, Jitter:
// 2} a shuffle or flipper request parks, is drained, and its reply — written
// during the drain's deliver phase — parks in turn and is drained rounds
// later; under a jitter-only delay some replies are instead delivered by the
// next generation of the same settle loop, while the deliver phase is again
// writing replies. Either way the run must not depend on the worker count,
// and every message must be accounted for.
func TestShardedRepliesUnderDelay(t *testing.T) {
	for _, p := range allProtocols() {
		if p.name != "shuffle" && p.name != "flipper" {
			continue
		}
		for _, delay := range []faults.Delay{{Fixed: 1, Jitter: 2}, {Jitter: 2}} {
			t.Run(fmt.Sprintf("%s/%+v", p.name, delay), func(t *testing.T) {
				var want string
				for _, workers := range []int{1, 4} {
					cond, err := faults.FromRate(0.03)
					if err != nil {
						t.Fatal(err)
					}
					if err := cond.SetDelay(delay); err != nil {
						t.Fatal(err)
					}
					e, err := newSharded(runtime.Config{N: 600, NewCore: p.factory, Conditions: cond, Seed: 41, ShardSize: 32, Workers: workers})
					if err != nil {
						t.Fatal(err)
					}
					for round := 0; round < 120; round++ {
						e.TickRound()
						if round == 60 {
							e.RemoveNode(5) // replies to a departed requester dead-letter
						}
					}
					e.DrainDelayed()
					tr, cnt := e.Traffic(), e.Counters()
					if !tr.Conserved() || e.Pending() != 0 {
						t.Errorf("workers=%d: ledger %+v with %d pending", workers, tr, e.Pending())
					}
					if cnt.Replies == 0 || tr.Sends != cnt.Sends+cnt.Replies || cnt.Receives != tr.Deliveries {
						t.Errorf("workers=%d: counters %+v against ledger %+v", workers, cnt, tr)
					}
					if delay.Fixed > 0 && tr.Delayed != tr.Sends-tr.Losses {
						t.Errorf("workers=%d: %d of %d surviving sends parked, want all (replies included)", workers, tr.Delayed, tr.Sends-tr.Losses)
					}
					if err := e.CheckInvariants(); err != nil {
						t.Errorf("workers=%d: %v", workers, err)
					}
					got := shardedFingerprint(e)
					e.Close()
					if want == "" {
						want = got
					} else if got != want {
						t.Errorf("workers=%d produced different results than workers=1", workers)
					}
				}
			})
		}
	}
}

// TestShardedViewsAllocs bounds the bulk snapshot: one slab of slots, one of
// view headers and the result, whatever n is.
func TestShardedViewsAllocs(t *testing.T) {
	e, err := newSharded(runtime.Config{N: 2000, NewCore: sfFactory(12, 4), Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.RemoveNode(17)
	if avg := testing.AllocsPerRun(10, func() { _ = e.Views() }); avg > 4 {
		t.Errorf("Views() allocates %.1f times at n=2000, want at most 4", avg)
	}
}

// ringCore is a step core with fixed traffic: every initiate step of node u
// sends one two-id message to u+1 (mod n), and no receive step replies.
type ringCore struct{ n int }

func (c ringCore) Name() string               { return "ring" }
func (c ringCore) ViewSize() int              { return 4 }
func (c ringCore) CheckView(*view.View) error { return nil }
func (c ringCore) SeedView([]peer.ID) (*view.View, error) {
	return view.New(c.ViewSize()), nil
}
func (c ringCore) InitiateBatch(_ *view.View, u peer.ID, _ *rng.RNG, out *protocol.Outbox) (int, int, bool) {
	out.Append2(peer.ID((int(u)+1)%c.n), u, protocol.KindGossip, false, u, u)
	return 1, 0, true
}
func (c ringCore) ReceiveBatch(*view.View, peer.ID, protocol.Packet, *rng.RNG, *protocol.Outbox) (bool, int) {
	return false, 0
}

// TestShardedSettersTakeEffectNextTick pins when a reconfiguration of the
// fault stack reaches the shards: the engine reads the stack once per tick,
// at its start, so a setter called between two ticks rules the very next one
// — all of it, on every shard — and not the one after. The ring core makes
// the expected ledger of each tick exact: n sends, one per link u -> u+1,
// every one of which crosses an even/odd partition.
func TestShardedSettersTakeEffectNextTick(t *testing.T) {
	const n = 64
	for _, workers := range []int{1, 4} {
		cond := faults.Lossless()
		e, err := newSharded(runtime.Config{
			N: n, Conditions: cond, Seed: 5, ShardSize: 16, Workers: workers, InitDegree: 2,
			NewCore: func() (protocol.StepCore, error) { return ringCore{n}, nil },
		})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		var even, odd []peer.ID
		for u := 0; u < n; u += 2 {
			even, odd = append(even, peer.ID(u)), append(odd, peer.ID(u+1))
		}
		must := func(err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
		}
		steps := []struct {
			name string
			set  func()
			want metrics.Traffic // what the next tick adds to the ledger
		}{
			{"no faults", func() {}, metrics.Traffic{Sends: n, Deliveries: n}},
			{"SetRate(1)", func() { must(cond.SetRate(1)) }, metrics.Traffic{Sends: n, Losses: n}},
			{"SetBase(None)", func() { must(cond.SetBase(loss.None{})) }, metrics.Traffic{Sends: n, Deliveries: n}},
			{"SetDelay(2)", func() { must(cond.SetDelay(faults.Delay{Fixed: 2})) }, metrics.Traffic{Sends: n, Delayed: n}},
			{"SetDelay(0)", func() { must(cond.SetDelay(faults.Delay{})) }, metrics.Traffic{Sends: n, Deliveries: n}},
			{"the parked round comes due", func() {}, metrics.Traffic{Sends: n, Deliveries: 2 * n}},
			{"Partition", func() { cond.Partition(even, odd) }, metrics.Traffic{Sends: n, Losses: n, PartitionDrops: n}},
			{"Heal", func() { cond.Heal() }, metrics.Traffic{Sends: n, Deliveries: n}},
			{"SetLinkLoss", func() { cond.SetLinkLoss(3, 4, loss.MustUniform(1)) }, metrics.Traffic{Sends: n, Losses: 1, LinkLosses: 1, Deliveries: n - 1}},
			{"SetLinkLoss(nil)", func() { cond.SetLinkLoss(3, 4, nil) }, metrics.Traffic{Sends: n, Deliveries: n}},
		}
		before := e.Traffic()
		for _, st := range steps {
			st.set()
			e.TickRound()
			after := e.Traffic()
			got := metrics.Traffic{
				Sends: after.Sends - before.Sends, Losses: after.Losses - before.Losses,
				Deliveries: after.Deliveries - before.Deliveries, DeadLetters: after.DeadLetters - before.DeadLetters,
				LinkLosses: after.LinkLosses - before.LinkLosses, PartitionDrops: after.PartitionDrops - before.PartitionDrops,
				Delayed: after.Delayed - before.Delayed,
			}
			if got != st.want {
				t.Errorf("workers=%d: the tick after %s added %+v to the ledger, want %+v", workers, st.name, got, st.want)
			}
			before = after
		}
		if fc, tr := cond.Counters(), e.Traffic(); fc.Decisions != tr.Sends || fc.Drops() != tr.Losses || fc.Delayed != tr.Delayed {
			t.Errorf("workers=%d: fault counters %+v do not account for ledger %+v", workers, fc, tr)
		}
	}
}
