package runtime_test

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"sendforget/internal/faults"
	"sendforget/internal/peer"
	"sendforget/internal/protocol"
	"sendforget/internal/protocol/pushpull"
	"sendforget/internal/rng"
	"sendforget/internal/runtime"
	"sendforget/internal/transport"
	"sendforget/internal/view"
)

// TestSubstrateZeroAllocRound holds the message-at-a-time engines to the
// sharded engine's memory budget: once warm, a seq or cluster round of any
// of the five protocols allocates nothing, with and without a jittered delay
// parking messages in the calendar (and, on the cluster, draining them
// through the network's Advance). Every send lends its step's ids from an
// outbox the engine or the node reuses; a driver that copies a message per
// send fails here at one allocation per message.
func TestSubstrateZeroAllocRound(t *testing.T) {
	for _, engine := range []runtime.EngineKind{runtime.EngineSeq, runtime.EngineCluster} {
		for _, p := range allProtocols() {
			for _, delay := range []faults.Delay{{}, {Fixed: 1, Jitter: 2}} {
				name := string(engine) + "/" + p.name
				if delay != (faults.Delay{}) {
					name += "/delayed"
				}
				t.Run(name, func(t *testing.T) {
					cond, err := faults.FromRate(0.01)
					if err != nil {
						t.Fatal(err)
					}
					if err := cond.SetDelay(delay); err != nil {
						t.Fatal(err)
					}
					sub, err := runtime.New(runtime.Config{Engine: engine, N: 1000, NewCore: p.factory, Conditions: cond, Seed: 10})
					if err != nil {
						t.Fatal(err)
					}
					defer sub.Close()
					// Warm up the outboxes, the nodes' free lists and the
					// calendar buckets to their steady-state capacity.
					for range 100 {
						sub.TickRound()
					}
					if avg := testing.AllocsPerRun(20, sub.TickRound); avg != 0 {
						t.Errorf("steady-state TickRound allocates %.2f times per round, want 0", avg)
					}
					if delayed := sub.Traffic().Delayed > 0; delayed != (delay != faults.Delay{}) {
						t.Errorf("delayed messages seen: %v", delayed)
					}
				})
			}
		}
	}
}

// TestNodeZeroAllocTick holds the deployed shape to the same budget: a warm
// Node on a UDP endpoint with address learning on ticks without allocating,
// its datagrams landing on a second endpoint and on a discard address. The
// node runs push-pull on a full two-slot view, which it keeps on send, so
// every tick sends.
func TestNodeZeroAllocTick(t *testing.T) {
	sink, err := transport.NewEndpoint("127.0.0.1:0", func(protocol.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	if err := sink.EnableAddressLearning(1, sink.Addr().String()); err != nil {
		t.Fatal(err)
	}
	directory := func(ep *transport.Endpoint) error {
		if err := ep.AddPeer(1, sink.Addr().String()); err != nil {
			return err
		}
		return ep.AddPeer(2, "127.0.0.1:9")
	}
	core, err := pushpull.NewCore(2)
	if err != nil {
		t.Fatal(err)
	}
	node, ep, err := runtime.NewUDPNode(runtime.NodeConfig{ID: 0, Core: core}, []peer.ID{1, 2}, "127.0.0.1:0", "", directory)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	for range 100 {
		node.Tick()
	}
	if avg := testing.AllocsPerRun(200, node.Tick); avg != 0 {
		t.Errorf("warm Tick allocates %.2f times, want 0", avg)
	}
	if c := node.Counters(); c.Ticks != 301 || c.Sends != c.Ticks || c.SendErrors != 0 {
		t.Errorf("node counters %+v, want a send on each of 301 ticks and no send errors", c)
	}
	// Let the sink drain its socket before the endpoints close.
	time.Sleep(10 * time.Millisecond)
}

// echoCore is a request/reply core whose reply repeats the request's two
// ids, read from the request as the reply is appended: on a driver that
// wrote the reply into the outbox the request's ids are lent from, the
// reply would carry the zeroed header instead. Each node requests from a
// random view entry with the ids (u, to), and both ends check what arrives.
type echoCore struct{ bad *atomic.Int64 }

func (echoCore) Name() string  { return "echo" }
func (echoCore) ViewSize() int { return 4 }

func (echoCore) SeedView(lv *view.View, seeds []peer.ID) error {
	for i, id := range seeds[:min(len(seeds), 4)] {
		lv.Set(i, id)
	}
	return nil
}

func (echoCore) InitiateBatch(lv *view.View, u peer.ID, r *rng.RNG, out *protocol.Outbox) (int, int, bool) {
	i, ok := lv.RandomOccupiedSlot(r)
	if !ok {
		return 0, 0, false
	}
	to := lv.Slot(i)
	out.Append2(to, u, protocol.KindRequest, false, u, to)
	return 1, 0, true
}

func (c echoCore) ReceiveBatch(lv *view.View, u peer.ID, pkt protocol.Packet, r *rng.RNG, out *protocol.Outbox) (bool, int) {
	switch pkt.Kind {
	case protocol.KindRequest:
		if len(pkt.IDs) != 2 || pkt.IDs[0] != pkt.From || pkt.IDs[1] != u {
			c.bad.Add(1)
		}
		out.Append(pkt.From, u, protocol.KindReply, false, pkt.IDs...)
		return true, 0
	case protocol.KindReply:
		if len(pkt.IDs) != 2 || pkt.IDs[0] != u || pkt.IDs[1] != pkt.From {
			c.bad.Add(1)
		}
	}
	return false, 0
}

func (echoCore) CheckView(*view.View) error { return nil }

// TestEchoRepliesKeepLentIDs runs echoCore on every engine, with and
// without a delay: every request and every reply must arrive with the ids
// it was sent with, though each driver lends a message's ids from the
// outbox its step wrote until the message has been delivered.
func TestEchoRepliesKeepLentIDs(t *testing.T) {
	for _, engine := range []runtime.EngineKind{runtime.EngineSeq, runtime.EngineCluster, runtime.EngineSharded} {
		for _, delay := range []faults.Delay{{}, {Fixed: 1, Jitter: 2}} {
			t.Run(fmt.Sprintf("%s/delay=%d+%d", engine, delay.Fixed, delay.Jitter), func(t *testing.T) {
				cond := faults.Lossless()
				if err := cond.SetDelay(delay); err != nil {
					t.Fatal(err)
				}
				var bad atomic.Int64
				sub, err := runtime.New(runtime.Config{
					Engine: engine, N: 200, Conditions: cond, Seed: 4,
					NewCore: func() (protocol.StepCore, error) { return echoCore{&bad}, nil },
				})
				if err != nil {
					t.Fatal(err)
				}
				defer sub.Close()
				for range 20 {
					sub.TickRound()
				}
				sub.DrainDelayed()
				if c := sub.Counters(); c.Replies == 0 || c.Receives != c.Sends+c.Replies {
					t.Fatalf("counters %+v, want every request and reply received", c)
				}
				if n := bad.Load(); n != 0 {
					t.Errorf("%d messages arrived with ids other than those sent", n)
				}
			})
		}
	}
}
