package main

import (
	"io"
	gort "runtime"
	"sync/atomic"
	"time"

	"sendforget/internal/driver"
	"sendforget/internal/faults"
	"sendforget/internal/graph"
	"sendforget/internal/loss"
	"sendforget/internal/metrics"
	"sendforget/internal/peer"
	"sendforget/internal/protocol"
	"sendforget/internal/rng"
	"sendforget/internal/transport"
	"sendforget/internal/view"
)

// The layer replay calls each lower layer's public functions in a tight
// single-threaded loop over the state the workload ended in, which is as
// close to the private phases of the sharded tick as the benchmark can get
// from outside (instrumenting initiateShard, route, deliverShard and
// drainDue themselves is a later change to internal/runtime).

// perCall times fn over at least minCalls calls (or one second, whichever
// comes first) and returns the cost and the heap allocations of one call.
func perCall(minCalls int, fn func(i int)) (ns, allocs float64) {
	const batch = 1 << 12
	var before, after gort.MemStats
	gort.ReadMemStats(&before)
	start := time.Now()
	calls := 0
	for calls < minCalls && time.Since(start) < time.Second {
		for i := 0; i < batch; i++ {
			fn(calls + i)
		}
		calls += batch
	}
	elapsed := time.Since(start)
	gort.ReadMemStats(&after)
	return float64(elapsed) / float64(calls), float64(after.Mallocs-before.Mallocs) / float64(calls)
}

// replay holds what the replayed loops share.
type replay struct {
	minCalls int
	r        *rng.RNG
	views    []*view.View // private copies of the live views, in random order
	ids      []peer.ID    // ids[i] owns views[i]
	byID     []*view.View // the same copies indexed by node id (nil = departed)
	out      map[string]Stat
}

func (rp *replay) ns(name string, fn func(i int)) {
	ns, _ := perCall(rp.minCalls, fn)
	rp.out[name] = scalar("ns", ns)
}

// replayLayers fills in the per-layer metrics that do not depend on the run
// but on the code and on the state the run ended in.
func replayLayers(final []*view.View, core protocol.BatchStepCore, seed int64, smoke bool, out map[string]Stat) {
	rp := &replay{minCalls: 1 << 20, r: rng.New(rng.DeriveSeed(seed, 0x7e91a4)), out: out, byID: make([]*view.View, len(final))}
	if smoke {
		rp.minCalls = 1 << 13
	}
	for u, v := range final {
		if v != nil {
			rp.byID[u] = v.Clone()
			rp.views = append(rp.views, rp.byID[u])
			rp.ids = append(rp.ids, peer.ID(u))
		}
	}
	if len(rp.views) == 0 {
		return
	}
	rp.r.Shuffle(len(rp.views), func(i, j int) {
		rp.views[i], rp.views[j] = rp.views[j], rp.views[i]
		rp.ids[i], rp.ids[j] = rp.ids[j], rp.ids[i]
	})
	rp.graphAndMetrics(final)
	rp.rngLayer()
	rp.viewLayer()
	rp.faultsLayer(len(final))
	rp.driverLayer()
	rp.transportLayer()
	if core != nil {
		rp.protocolLayer(core)
	}
}

func (rp *replay) graphAndMetrics(final []*view.View) {
	reps := 3
	if rp.minCalls < 1<<20 {
		reps = 1
	}
	var g *graph.Graph
	t := time.Now()
	for i := 0; i < reps; i++ {
		g = graph.FromViews(final)
	}
	rp.out["graph.from_views_ms"] = scalar("ms", ms(time.Since(t))/float64(reps))
	t = time.Now()
	for i := 0; i < reps; i++ {
		g.ComponentCount()
	}
	rp.out["graph.component_count_ms"] = scalar("ms", ms(time.Since(t))/float64(reps))

	tr := metrics.Traffic{Sends: 123456789, Losses: 1234567, Deliveries: 122222222}
	ns, _ := perCall(rp.minCalls/16, func(int) { tr.WriteProm(metrics.NewPromWriter(io.Discard), "sendforget") })
	rp.out["metrics.writeprom_us"] = scalar("us", ns/1000)
}

func (rp *replay) rngLayer() {
	r := rp.r
	sink := 0
	rp.ns("rng.fastpair_ns", func(int) { a, b := r.FastPair(sfS); sink += a + b })
	rp.ns("rng.bernoulli_ns", func(int) {
		if r.Bernoulli(sfLoss) {
			sink++
		}
	})
	rp.ns("rng.derive_seed_ns", func(i int) { sink += int(rng.DeriveSeed(1, int64(i), 0)) })
	_ = sink
}

// viewLayer visits the views in random order, as the deliver phase does.
func (rp *replay) viewLayer() {
	r, n := rp.r, len(rp.views)
	sink := 0
	rp.ns("view.random_pair_fast_ns", func(i int) { a, b := rp.views[i%n].RandomPairFast(r); sink += a + b })
	rp.ns("view.random_occupied_slot_ns", func(i int) { a, _ := rp.views[i%n].RandomOccupiedSlot(r); sink += a })
	rp.ns("view.replace_random_occupied_ns", func(i int) { z, _ := rp.views[i%n].ReplaceRandomOccupied(r, rp.ids[(i+1)%n]); sink += int(z) })
	// Clear two occupied slots and fill them again: the initiate step's
	// write and the receive step's, leaving the view as it was. The slots
	// are found beforehand so that the draw is not part of the cost.
	type pair struct{ a, b int }
	pairs := make([]pair, n)
	for i, v := range rp.views {
		pairs[i] = pair{-1, -1}
		for s := 0; s < v.Size() && pairs[i].b < 0; s++ {
			if v.Slot(s) == peer.Nil {
				continue
			}
			if pairs[i].a < 0 {
				pairs[i].a = s
			} else {
				pairs[i].b = s
			}
		}
	}
	rp.ns("view.clear_fill_pair_ns", func(i int) {
		v, p := rp.views[i%n], pairs[i%n]
		if p.b < 0 {
			return
		}
		ida, idb := v.Slot(p.a), v.Slot(p.b)
		v.ClearOccupiedPair(p.a, p.b)
		v.FillEmptyPair(p.a, p.b, ida, idb)
	})
	_ = sink
}

// The three fault stacks of the workloads, decided through one session as
// the sharded route pass does.
func (rp *replay) faultsLayer(n int) {
	decide := func(name string, cond *faults.Conditions) {
		ses := cond.Begin()
		rp.ns(name, func(i int) { ses.Decide(peer.ID(i%n), peer.ID((i*7+1)%n), rp.r) })
		ses.Close()
	}
	if cond, err := faults.FromRate(sfLoss); err == nil {
		decide("faults.decide_uniform_ns", cond)
	}
	if cond, err := burstJitterStack(); err == nil {
		decide("faults.decide_burst_jitter_ns", cond)
	}
	if cond, err := burstJitterStack(); err == nil {
		cond.Partition(evenOdd(n))
		decide("faults.decide_partitioned_ns", cond)
	}
}

// driverLayer times the router's two fates of a message: ruled on and passed
// (or dropped) at 1% loss, and parked in the delay queue and popped again.
func (rp *replay) driverLayer() {
	n := len(rp.byID)
	ids := [2]peer.ID{1, 2}
	msg := protocol.Message{Kind: protocol.KindGossip, From: 0, IDs: ids[:]}
	live := func(peer.ID) bool { return true }

	if cond, err := faults.FromRate(sfLoss); err == nil {
		rt := driver.NewRouter(cond, rp.r, live)
		ses := cond.Begin()
		rp.ns("driver.routein_pass_ns", func(i int) { rt.RouteIn(&ses, peer.ID(i%n), msg) })
		ses.Close()
	}

	cond := faults.Lossless()
	if cond.SetDelay(faults.Delay{Fixed: 1}) != nil {
		return
	}
	rt := driver.NewRouter(cond, rp.r, live)
	const batch = 1 << 12
	var park, pop time.Duration
	var before, after gort.MemStats
	gort.ReadMemStats(&before)
	calls := 0
	for calls < rp.minCalls && park+pop < time.Second {
		ses := cond.Begin()
		t := time.Now()
		for i := 0; i < batch; i++ {
			rt.RouteIn(&ses, peer.ID(i%n), msg)
		}
		park += time.Since(t)
		ses.Close()
		rt.Tick()
		t = time.Now()
		for {
			if _, ok := rt.Due(); !ok {
				break
			}
		}
		pop += time.Since(t)
		calls += batch
	}
	gort.ReadMemStats(&after)
	rp.out["driver.routein_park_ns"] = scalar("ns", float64(park)/float64(calls))
	rp.out["driver.due_pop_ns"] = scalar("ns", float64(pop)/float64(calls))
	rp.out["driver.park_allocs_per_msg"] = scalar("count", float64(after.Mallocs-before.Mallocs)/float64(calls))
}

func (rp *replay) transportLayer() {
	ids := [2]peer.ID{7, 11}
	msg := protocol.Message{Kind: protocol.KindGossip, From: 3, IDs: ids[:], Dup: true}
	addrs := []string{"127.0.0.1:40007", "127.0.0.1:40011"}
	bare, err1 := transport.Marshal(msg)
	addressed, err2 := transport.MarshalAddressed(msg, addrs)
	if err1 != nil || err2 != nil {
		return
	}
	sink := 0
	rp.ns("transport.marshal_ns", func(int) { b, _ := transport.Marshal(msg); sink += len(b) })
	rp.ns("transport.unmarshal_ns", func(int) { m, _ := transport.Unmarshal(bare); sink += len(m.IDs) })
	rp.ns("transport.marshal_addressed_ns", func(int) { b, _ := transport.MarshalAddressed(msg, addrs); sink += len(b) })
	rp.ns("transport.unmarshal_addressed_ns", func(int) { m, _, _ := transport.UnmarshalAddressed(addressed); sink += len(m.IDs) })
	// What the UDP path pays the allocator per message: one addressed
	// marshal on the way out, one addressed unmarshal on the way in.
	_, allocs := perCall(rp.minCalls, func(int) {
		b, _ := transport.MarshalAddressed(msg, addrs)
		m, _, _ := transport.UnmarshalAddressed(b)
		sink += len(m.IDs)
	})
	rp.out["transport.codec_allocs_per_msg"] = scalar("count", allocs)

	var ob, in protocol.Outbox
	ob.Append2(5, 3, protocol.KindGossip, true, 7, 11)
	var buf []byte
	rp.ns("transport.appendflat_ns", func(int) { buf, _ = transport.AppendFlat(buf[:0], &ob, &ob.Msgs[0]) })
	rp.ns("transport.unmarshalflat_ns", func(i int) {
		if i%1024 == 0 {
			in.Reset()
		}
		if transport.UnmarshalFlatInto(bare, 5, &in) != nil {
			sink++
		}
	})

	if nw, err := transport.NewNetwork(loss.None{}, rp.r); err == nil {
		for id := 0; id < 64; id++ {
			nw.Register(peer.ID(id), func(protocol.Message) {})
		}
		rp.ns("transport.inmem_send_ns", func(i int) {
			if nw.Send(peer.ID(i%64), msg) != nil {
				sink++
			}
		})
	}
	_ = sink
	if rtt := udpRoundTrips(msg, rp.minCalls>>9); len(rtt) > 0 {
		rp.out["transport.udp_rtt_us_p50"] = dist("us", rtt, 0.5)
	}
}

// udpRoundTrips ping-pongs msg between two bare endpoints n times through
// handlers of the harness's own and returns the round-trip times in us.
func udpRoundTrips(msg protocol.Message, n int) []float64 {
	var a, b atomic.Pointer[transport.Endpoint]
	back := make(chan struct{}, 1) // one ping in flight at a time
	epA, err := transport.NewEndpoint("127.0.0.1:0", func(protocol.Message) { back <- struct{}{} })
	if err != nil {
		return nil
	}
	defer epA.Close()
	epB, err := transport.NewEndpoint("127.0.0.1:0", func(m protocol.Message) {
		_ = b.Load().Send(0, m) // a lost echo shows up as the timeout below
	})
	if err != nil {
		return nil
	}
	defer epB.Close()
	a.Store(epA)
	b.Store(epB)
	if epA.AddPeer(1, epB.Addr().String()) != nil || epB.AddPeer(0, epA.Addr().String()) != nil {
		return nil
	}
	var rtt []float64
	timeout := time.NewTimer(time.Second)
	defer timeout.Stop()
	for i := 0; i < n; i++ {
		t := time.Now()
		if a.Load().Send(1, msg) != nil {
			continue
		}
		timeout.Reset(time.Second)
		select {
		case <-back:
			rtt = append(rtt, float64(time.Since(t))/float64(time.Microsecond))
		case <-timeout.C:
		}
	}
	return rtt
}

// protocolLayer alternates a sequential initiate pass (node order, as the
// initiate phase visits) with a receive pass over the messages it produced
// (random destinations, as the deliver phase sees them), so the views stay
// near the steady state they were taken in.
func (rp *replay) protocolLayer(core protocol.BatchStepCore) {
	var ob, replies, discard protocol.Outbox
	var initiate, receive time.Duration
	initiates, receives := 0, 0
	deliver := func(from, to *protocol.Outbox) {
		for i := range from.Msgs {
			m := &from.Msgs[i]
			if int(m.To) < 0 || int(m.To) >= len(rp.byID) || rp.byID[m.To] == nil {
				continue
			}
			core.ReceiveBatch(rp.byID[m.To], m.To, protocol.Packet{Kind: m.Kind, From: m.From, IDs: from.MsgIDs(m), Dup: m.Dup}, rp.r, to)
			receives++
		}
	}
	for initiates < rp.minCalls && initiate+receive < 2*time.Second {
		ob.Reset()
		t := time.Now()
		for u, v := range rp.byID {
			if v != nil {
				core.InitiateBatch(v, peer.ID(u), rp.r, &ob)
				initiates++
			}
		}
		initiate += time.Since(t)
		replies.Reset()
		discard.Reset()
		t = time.Now()
		deliver(&ob, &replies)
		deliver(&replies, &discard)
		receive += time.Since(t)
	}
	rp.out["protocol.initiate_batch_ns"] = scalar("ns", float64(initiate)/float64(max(initiates, 1)))
	rp.out["protocol.receive_batch_ns"] = scalar("ns", float64(receive)/float64(max(receives, 1)))
	rp.ns("protocol.outbox_append_ns", func(i int) {
		if i%4096 == 0 {
			ob.Reset()
		}
		ob.Append2(1, 2, protocol.KindGossip, false, 3, 4)
	})
}
