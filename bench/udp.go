package main

import (
	"fmt"
	gort "runtime"
	"sync/atomic"
	"time"

	"sendforget/internal/metrics"
	"sendforget/internal/mgmt"
	"sendforget/internal/peer"
	"sendforget/internal/protocol"
	"sendforget/internal/protocol/sendforget"
	"sendforget/internal/rng"
	"sendforget/internal/runtime"
	"sendforget/internal/transport"
	"sendforget/internal/view"
)

// The udp workload's protocol parameters: S&F with a small view, eight
// circulant seeds per node.
const (
	udpS, udpDL, udpSeeds = 16, 6, 8
	udpWarm               = 1000
	// udpStall is how long the delivery barrier waits without one more
	// datagram arriving before it writes the outstanding ones off as lost.
	// Loopback loses nothing unless a socket buffer overflows, so anything
	// shorter than a scheduler hiccup would count late datagrams as lost.
	udpStall = 20 * time.Millisecond
	// udpTraceEvery: a traced run records the spans of one node in this
	// many. Three spans per message on every node cost 12% of the round.
	udpTraceEvery = 4
)

// udp is a cluster of real UDP endpoints on the loopback interface, one
// runtime.Node each, wired as sfnode and membership.NewUDPNode wire them:
// address learning on, a full peer directory. No loss is injected; what the
// kernel drops is what is lost. One driver goroutine runs closed-loop rounds:
// Tick every node, then wait until every datagram sent has been delivered (or
// written off).
type udp struct {
	o     options
	rec   *recorder
	eps   []*transport.Endpoint
	nodes []*runtime.Node

	rounds int64
	// handled counts receive handlers that have returned. The barrier polls
	// it instead of locking 64 endpoints per poll, and reading it is what
	// orders the handlers' writes (views, spans) before the driver's reads.
	handled    atomic.Int64
	writtenOff int64    // datagrams the barrier gave up waiting for
	failedOps  int64    // undelivered datagrams, send errors, decode errors
	scr        *scraper // over the mgmt.UDPNode adapter sfnode puts in front of one real node
	final      []*view.View
}

func runUDPLoopback(o options) (*Result, error) {
	return drive(o, func(rec *recorder) (instance, setupInfo, error) { return buildUDP(o, rec) })
}

func buildUDP(o options, rec *recorder) (_ *udp, info setupInfo, err error) {
	k := o.pick(8, 64)
	u := &udp{o: o, rec: rec, eps: make([]*transport.Endpoint, k), nodes: make([]*runtime.Node, k)}
	defer func() {
		if err != nil {
			u.close()
		}
	}()
	t0 := time.Now()
	// The receive handler needs the node and the node needs the endpoint as
	// its sender, so the handler reads the node through a pointer that is
	// set before the first datagram is sent.
	slots := make([]atomic.Pointer[runtime.Node], k)
	for i := range u.eps {
		slot, sampled := &slots[i], i%udpTraceEvery == 0
		u.eps[i], err = transport.NewEndpoint("127.0.0.1:0", func(m protocol.Message) {
			defer u.handled.Add(1)
			n := slot.Load()
			if !sampled || !rec.enabled() {
				n.HandleMessage(m)
				return
			}
			id := rec.begin(spNodeHandle, 0)
			n.HandleMessage(m)
			rec.end(id)
		})
		if err != nil {
			return nil, info, err
		}
	}
	for i, ep := range u.eps {
		if err = ep.EnableAddressLearning(peer.ID(i), ep.Addr().String()); err != nil {
			return nil, info, err
		}
		for j, other := range u.eps {
			if j == i {
				continue
			}
			if err = ep.AddPeer(peer.ID(j), other.Addr().String()); err != nil {
				return nil, info, err
			}
		}
		core, err := sendforget.NewCore(udpS, udpDL)
		if err != nil {
			return nil, info, err
		}
		seeds := make([]peer.ID, min(udpSeeds, k-1))
		for s := range seeds {
			seeds[s] = peer.ID((i + s + 1) % k)
		}
		var out runtime.Sender = ep
		if rec != nil && i%udpTraceEvery == 0 {
			out = tracedSender{ep, rec}
		}
		n, err := runtime.NewNode(runtime.NodeConfig{ID: peer.ID(i), Core: core, Seed: rng.DeriveSeed(o.seed, int64(i))}, seeds, out)
		if err != nil {
			return nil, info, err
		}
		u.nodes[i] = n
		slots[i].Store(n)
	}
	info = setupInfo{nodes: k, warmRounds: o.pick(udpWarm/5, udpWarm), construct: time.Since(t0)}
	t0 = time.Now()
	for r := 0; r < info.warmRounds; r++ {
		u.round(r)
	}
	u.rounds = 0
	info.warmup = time.Since(t0)
	b, err := mgmt.NewUDPNode(mgmt.UDPNodeOptions{Node: u.nodes[0], Endpoint: u.eps[0], Protocol: "sf", S: udpS, DL: udpDL, Seed: o.seed})
	if err != nil {
		return nil, info, err
	}
	if u.scr, err = newScraper(b); err != nil {
		return nil, info, err
	}
	return u, info, nil
}

func (u *udp) begin(time.Time) {}
func (u *udp) end()            {}

// round ticks every node and then waits for the datagrams to land.
func (u *udp) round(int) {
	u.rounds++
	if u.rec.enabled() {
		// S&F never replies, so Endpoint.Send is only ever reached from
		// Node.Tick on this goroutine and may nest under its span.
		for i, n := range u.nodes {
			if i%udpTraceEvery != 0 {
				n.Tick()
				continue
			}
			id, prev := u.rec.enter(spNodeTick)
			n.Tick()
			u.rec.leave(id, prev)
		}
		id, prev := u.rec.enter(spBarrier)
		u.barrier()
		u.rec.leave(id, prev)
		return
	}
	for _, n := range u.nodes {
		n.Tick()
	}
	u.barrier()
}

// udpTotals is the sum of the endpoints' counters (a type of the harness's
// own: transport.Counters is written by its package alone).
type udpTotals struct{ Sent, Delivered, NoRoute int }

func (u *udp) traffic() (t udpTotals, decodeErrors int) {
	for _, ep := range u.eps {
		e := ep.Counters()
		t.Sent += e.Sent
		t.Delivered += e.Delivered
		t.NoRoute += e.NoRoute
		decodeErrors += ep.DecodeErrors()
	}
	return t, decodeErrors
}

// barrier yields until every datagram sent so far has been handled, except
// those already written off. A datagram written off that arrives after all
// is un-written.
func (u *udp) barrier() {
	c, _ := u.traffic()
	routed := int64(c.Sent - c.NoRoute)
	last := routed - u.handled.Load()
	progress := time.Now()
	for last > u.writtenOff {
		gort.Gosched()
		now := routed - u.handled.Load()
		if now < last {
			last, progress = now, time.Now()
		} else if time.Since(progress) > udpStall {
			break
		}
	}
	u.writtenOff = max(last, 0)
}

func (u *udp) progress() (ticks, delivered int64) {
	c, _ := u.traffic()
	return u.rounds * int64(len(u.nodes)), int64(c.Delivered)
}

func (u *udp) check(c *checks) {
	u.invariants(c)
	u.scr.scrapeIdle()
}

func (u *udp) invariants(c *checks) {
	for _, n := range u.nodes {
		err := n.CheckInvariants()
		c.that("view invariants", err == nil, "%v", err)
	}
}

func (u *udp) finish(c *checks, res *Result) {
	time.Sleep(udpStall) // last chance for a datagram written off to arrive
	u.invariants(c)
	t, decodeErrors := u.traffic()
	var n runtime.NodeCounters
	u.final = u.final[:0]
	for _, node := range u.nodes {
		k := node.Counters()
		n.Ticks += k.Ticks
		n.SelfLoops += k.SelfLoops
		n.Sends += k.Sends
		n.Duplications += k.Duplications
		n.Receives += k.Receives
		n.Replies += k.Replies
		n.SendErrors += k.SendErrors
		u.final = append(u.final, node.ViewSnapshot())
	}
	undelivered := t.Sent - t.NoRoute - t.Delivered
	u.failedOps = int64(undelivered + n.SendErrors + decodeErrors)
	c.that("no decode errors", decodeErrors == 0, "%d", decodeErrors)
	c.that("no send errors", n.SendErrors == 0, "%d", n.SendErrors)
	c.that("undelivered <= 1% of sent", float64(undelivered) <= 0.01*float64(t.Sent), "%d of %d", undelivered, t.Sent)
	res.Counters = n
	res.Ledger = metrics.Traffic{Sends: t.Sent, Losses: undelivered, Deliveries: t.Delivered, DeadLetters: t.NoRoute}
	res.StateDigest = "n/a (real sockets: arrival order is the kernel's)"
	res.Notes = append(res.Notes, "real loopback sockets, no injected loss; ledger losses are datagrams the kernel never delivered")
}

func (u *udp) scrapes() []float64 { return u.scr.idleMS }

// ops counts every datagram sent as an operation and every one that was not
// delivered, could not be sent or could not be decoded as a failed one.
func (u *udp) ops() (attempted, failed int64) {
	t, _ := u.traffic()
	return int64(t.Sent) + u.scr.requests, u.failedOps + u.scr.failed
}

func (u *udp) layers(spans []span, out map[string]Stat) {
	stat := func(name string, kind spanKind, self bool) {
		d := durationsOf(spans, kind, self, time.Microsecond)
		out[name] = dist("us", d, 0.5)
	}
	stat("runtime.node_tick_us", spNodeTick, true)
	stat("runtime.node_handle_us", spNodeHandle, false)
	stat("transport.udp_send_us", spUDPSend, false)
	t, decodeErrors := u.traffic()
	if t.Sent > 0 {
		out["transport.udp_undelivered_share"] = scalar("ratio", float64(t.Sent-t.NoRoute-t.Delivered)/float64(t.Sent))
		out["transport.udp_noroute_share"] = scalar("ratio", float64(t.NoRoute)/float64(t.Sent))
	}
	out["transport.udp_decode_errors"] = scalar("count", float64(decodeErrors))
}

func (u *udp) replayState() ([]*view.View, protocol.BatchStepCore) {
	core, err := sendforget.NewCore(udpS, udpDL)
	if err != nil {
		return u.final, nil
	}
	return u.final, core
}

func (u *udp) callsPerRound(res *Result) map[string]float64 {
	rounds := float64(res.WarmRounds + res.Rounds)
	return map[string]float64{
		"transport.marshal_addressed_ns":   float64(res.Ledger.Sends) / rounds,
		"transport.unmarshal_addressed_ns": float64(res.Ledger.Deliveries) / rounds,
	}
}

func (u *udp) close() {
	if u.scr != nil {
		u.scr.close()
	}
	for _, ep := range u.eps {
		if ep != nil {
			if err := ep.Close(); err != nil {
				fmt.Println("close endpoint:", err)
			}
		}
	}
}
