package runtime_test

import (
	"fmt"
	"slices"
	"testing"

	"sendforget/internal/faults"
	"sendforget/internal/metrics"
	"sendforget/internal/peer"
	"sendforget/internal/protocol"
	"sendforget/internal/protocol/flipper"
	"sendforget/internal/rng"
	"sendforget/internal/runtime"
	"sendforget/internal/view"
)

// deliver and drain take their input a run at a time — at most
// protocol.MaxRun messages whose destinations are touched together before the
// first of them is ruled on — and these tests hold the run boundaries to the
// order and the counts message-at-a-time processing gives.

// scriptNet is what the script cores of one cluster share with the test. The
// test writes dest between ticks; during a tick each log is appended to only
// by the worker that runs the shard it belongs to.
type scriptNet struct {
	shift uint
	dest  []peer.ID       // where node u's next initiate step sends; peer.Nil: nowhere
	ask   []bool          // whether that message is a request, answered with a reply
	log   [][]scriptEvent // per shard: the messages its nodes received, in order
	bad   []int           // per shard: messages whose payload did not arrive intact
}

type scriptEvent struct {
	from, to peer.ID
	reply    bool
}

// scriptCore sends what the test scripted — one three-id message (an arena
// payload) from every node with a destination — and logs every receive at the
// receiver's shard.
type scriptCore struct{ net *scriptNet }

func (c scriptCore) Name() string                         { return "script" }
func (c scriptCore) ViewSize() int                        { return 4 }
func (c scriptCore) CheckView(*view.View) error           { return nil }
func (c scriptCore) SeedView(*view.View, []peer.ID) error { return nil }

func (c scriptCore) InitiateBatch(_ *view.View, u peer.ID, _ *rng.RNG, out *protocol.Outbox) (int, int, bool) {
	to := c.net.dest[u]
	if to == peer.Nil {
		return 0, 0, false
	}
	kind := protocol.KindGossip
	if c.net.ask[u] {
		kind = protocol.KindRequest
	}
	out.Append(to, u, kind, false, u, u+1, u+2)
	return 1, 0, true
}

func (c scriptCore) ReceiveBatch(_ *view.View, u peer.ID, pkt protocol.Packet, _ *rng.RNG, out *protocol.Outbox) (bool, int) {
	k := int(u) >> c.net.shift
	c.net.log[k] = append(c.net.log[k], scriptEvent{from: pkt.From, to: u, reply: pkt.Kind == protocol.KindReply})
	if len(pkt.IDs) != 3 || pkt.IDs[0] != pkt.From || pkt.IDs[1] != pkt.From+1 || pkt.IDs[2] != pkt.From+2 {
		c.net.bad[k]++
	}
	if pkt.Kind != protocol.KindRequest {
		return false, 0
	}
	out.Append(pkt.From, u, protocol.KindReply, false, u, u+1, u+2)
	return true, 0
}

// newScripted builds a 256-node, four-shard cluster of script cores under a
// lossless stack with a fixed delay.
func newScripted(t *testing.T, delay, workers int) (runtime.Substrate, *scriptNet) {
	t.Helper()
	const n, shardSize, shift = 256, 64, 6
	net := &scriptNet{
		shift: shift, dest: make([]peer.ID, n), ask: make([]bool, n),
		log: make([][]scriptEvent, n/shardSize), bad: make([]int, n/shardSize),
	}
	cond := faults.Lossless()
	if err := cond.SetDelay(faults.Delay{Fixed: delay}); err != nil {
		t.Fatal(err)
	}
	e, err := newSharded(runtime.Config{
		N: n, Conditions: cond, Seed: 9, ShardSize: shardSize, Workers: workers, InitDegree: 2,
		NewCore: func() (protocol.StepCore, error) { return scriptCore{net}, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e, net
}

// script sets the next tick's sends: sender[i] to dest[i], nobody else.
func (net *scriptNet) script(sender, dest []peer.ID, ask bool) {
	for u := range net.dest {
		net.dest[u] = peer.Nil
	}
	for i, u := range sender {
		net.dest[u], net.ask[u] = dest[i], ask
	}
}

// TestShardedRunBoundaries. Due buckets of 1, 15, 16, 17 and 33 messages —
// one short run, a run one short of full, exactly one, one over, two and one
// over — parked in shard 0's calendar by senders spread over the three other
// shards, drain in (due, enqueue) order: the order shard 0 ruled on them, its
// column's lanes in source-shard order, each in append order, which is sender
// order. One destination leaves while its mail is in flight: that message is
// touched, dead-letters and is not received. Then, with no delay, a lane that
// chains into a second and a third chunk (40 requests from shard 1 to shard 0,
// filed alternately with 24 messages to shard 2, so the chunks of the two
// lanes interleave in the row's pool) is delivered in append order, and so are
// the replies on their way back: shard 0's 40, then shard 2's 24.
func TestShardedRunBoundaries(t *testing.T) {
	for _, workers := range []int{1, 4} {
		for _, k := range []int{1, 15, 16, 17, 33} {
			t.Run(fmt.Sprintf("due=%d/workers=%d", k, workers), func(t *testing.T) {
				const delay = 2
				e, net := newScripted(t, delay, workers)
				sender, dest := make([]peer.ID, k), make([]peer.ID, k)
				var want []scriptEvent
				const gone = 3 // the index of the message whose destination leaves
				dead := 0
				for i := range sender {
					sender[i] = peer.ID(64 + 5*i) // shards 1, 2 and 3
					dest[i] = peer.ID(7 * i % 64) // shard 0, every node at most once
					if i == gone {
						dead = 1
						continue
					}
					want = append(want, scriptEvent{from: sender[i], to: dest[i]})
				}
				net.script(sender, dest, false)
				e.TickRound()
				net.script(nil, nil, false)
				if tr := e.Traffic(); tr != (metrics.Traffic{Sends: k, Delayed: k}) || e.Pending() != k {
					t.Fatalf("after the sending tick: ledger %+v, %d pending; want %d sent, parked and pending", tr, e.Pending(), k)
				}
				if dead > 0 {
					e.RemoveNode(dest[gone])
				}
				for i := 1; i < delay; i++ {
					e.TickRound()
				}
				if len(net.log[0]) != 0 || e.Pending() != k {
					t.Fatalf("one tick before the bucket is due: %d received, %d pending", len(net.log[0]), e.Pending())
				}
				e.TickRound()
				if !slices.Equal(net.log[0], want) {
					t.Fatalf("shard 0 received\n%v\nwant (due, enqueue) order\n%v", net.log[0], want)
				}
				wantLedger := metrics.Traffic{Sends: k, Delayed: k, Deliveries: k - dead, DeadLetters: dead}
				if tr, cnt := e.Traffic(), e.Counters(); tr != wantLedger || e.Pending() != 0 || cnt.Receives != k-dead || cnt.Sends != k || cnt.Replies != 0 {
					t.Fatalf("after the drain: ledger %+v, counters %+v, %d pending; want %+v", tr, cnt, e.Pending(), wantLedger)
				}
				if net.bad[0] != 0 || len(net.log[1])+len(net.log[2])+len(net.log[3]) != 0 {
					t.Fatalf("%d damaged payloads; other shards received %v %v %v", net.bad[0], net.log[1], net.log[2], net.log[3])
				}
			})
		}

		t.Run(fmt.Sprintf("chained-lane/workers=%d", workers), func(t *testing.T) {
			e, net := newScripted(t, 0, workers)
			var sender, dest []peer.ID
			var want0, want1, want2, back2 []scriptEvent
			for i := 0; i < 64; i++ {
				u := peer.ID(64 + i)
				to := peer.ID((13 * i) % 64) // shard 0
				if i%8 >= 5 {
					to = peer.ID(128 + i) // shard 2
				}
				sender, dest = append(sender, u), append(dest, to)
				if to < 64 {
					want0 = append(want0, scriptEvent{from: u, to: to})
					want1 = append(want1, scriptEvent{from: to, to: u, reply: true})
				} else {
					want2 = append(want2, scriptEvent{from: u, to: to})
					back2 = append(back2, scriptEvent{from: to, to: u, reply: true})
				}
			}
			want1 = append(want1, back2...) // shard 1's column: lane (0 -> 1), then lane (2 -> 1)
			if len(want0) != 40 || len(want2) != 24 {
				t.Fatalf("the script sends %d and %d messages, want 40 and 24", len(want0), len(want2))
			}
			net.script(sender, dest, true)
			e.TickRound()
			for k, want := range [][]scriptEvent{want0, want1, want2, nil} {
				if !slices.Equal(net.log[k], want) {
					t.Errorf("shard %d received\n%v\nwant append order\n%v", k, net.log[k], want)
				}
				if net.bad[k] != 0 {
					t.Errorf("shard %d: %d damaged payloads", k, net.bad[k])
				}
			}
			// Every message is a request: 64 sends, 64 replies, all delivered.
			if tr, cnt := e.Traffic(), e.Counters(); tr != (metrics.Traffic{Sends: 128, Deliveries: 128}) || cnt.Receives != 128 || cnt.Replies != 64 {
				t.Errorf("ledger %+v, counters %+v; want 128 sends and deliveries, 64 replies", tr, cnt)
			}
		})
	}
}

// TestShardedTouchAnyViewSize runs the engine on views of every shape a touch
// has to be right for — s = 6 (a window shorter than a cache line, several to
// a line), 16 (exactly a line's worth, at every alignment), 40 (the paper's),
// 64 (the occupancy mask's last size) and 70 (past it: the selectors scan) —
// through a lossy stack that parks every message for one to three rounds, so
// that the drain phase's runs are touched too, with thirty nodes leaving
// mid-run while mail for them is parked: the tick after they leave rules
// nothing to a dead letter (every passing message parks), so the dead letters
// it counts are drained messages whose destination's record and window were
// touched after the node had gone. The race detector watches the touches
// (plain loads of what the shard's worker owns); results must not depend on
// the worker count.
func TestShardedTouchAnyViewSize(t *testing.T) {
	for _, s := range []int{6, 16, 40, 64, 70} {
		t.Run(fmt.Sprintf("s=%d", s), func(t *testing.T) {
			var want string
			for _, workers := range []int{1, 4} {
				cond, err := faults.FromRate(0.03)
				if err != nil {
					t.Fatal(err)
				}
				if err := cond.SetDelay(faults.Delay{Fixed: 1, Jitter: 2}); err != nil {
					t.Fatal(err)
				}
				e, err := newSharded(runtime.Config{
					N: 500, Conditions: cond, Seed: int64(s), ShardSize: 32, Workers: workers,
					NewCore: func() (protocol.StepCore, error) { return flipper.NewCore(s) },
				})
				if err != nil {
					t.Fatal(err)
				}
				for round := 0; round < 300; round++ {
					if round == 150 {
						before := e.Traffic().DeadLetters
						for u := peer.ID(100); u < 400; u += 10 {
							e.RemoveNode(u)
						}
						e.TickRound()
						if after := e.Traffic().DeadLetters; after == before {
							t.Fatalf("workers=%d: no parked message for a departed node was drained; the schedule does not exercise that touch", workers)
						}
						if err := e.AddNode(200, []peer.ID{1, 2, 3, 4}, false); err != nil {
							t.Fatal(err)
						}
					}
					e.TickRound()
				}
				e.DrainDelayed()
				if tr := e.Traffic(); !tr.Conserved() || e.Pending() != 0 {
					t.Errorf("workers=%d: ledger %+v with %d pending", workers, tr, e.Pending())
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
