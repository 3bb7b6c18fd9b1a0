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
	if l.LinkLosses+l.PartitionDrops > l.Losses {
		t.Fatalf("%s: loss subsets exceed losses: %+v", when, l)
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
	cond.SetLinkLoss(1, 2, loss.MustUniform(1)) // the 1 -> 2 link drops everything
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
		{"link override drops", 1, 2, Dropped, metrics.Traffic{Sends: 2, Deliveries: 1, Losses: 1, LinkLosses: 1}},
		{"the reverse link is clean", 2, 1, Delivered, metrics.Traffic{Sends: 3, Deliveries: 2, Losses: 1, LinkLosses: 1}},
		{"partition cuts", 0, 3, Dropped, metrics.Traffic{Sends: 4, Deliveries: 2, Losses: 2, LinkLosses: 1, PartitionDrops: 1}},
		{"departed destination", 0, 7, DeadLetter, metrics.Traffic{Sends: 5, Deliveries: 2, Losses: 2, LinkLosses: 1, PartitionDrops: 1, DeadLetters: 1}},
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

	// RouteIn rules exactly like Route, under the caller's session.
	cond.Heal()
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
	if fc := cond.Counters(); fc.Decisions != rt.Traffic().Sends {
		t.Errorf("fault stack ruled on %d messages, router counted %d sends", fc.Decisions, rt.Traffic().Sends)
	}
}

// newRouterOver builds a router whose fault stack is nothing but the base
// model lm — what engine.New hands its router.
func newRouterOver(t *testing.T, lm loss.Model, seed int64, live func(peer.ID) bool) *Router {
	t.Helper()
	cond, err := faults.New(lm)
	if err != nil {
		t.Fatal(err)
	}
	return NewRouter(cond, rng.New(seed), live)
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
	cores := func(s int) protocol.CoreFactory {
		return func() (protocol.StepCore, error) { return sized{s: s}, nil }
	}
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
		got, err := BootstrapDegree(cores(tc.s), tc.n, tc.requested)
		if err != nil || got != tc.want {
			t.Errorf("BootstrapDegree(s=%d, n=%d, requested=%d) = %d, %v; want %d", tc.s, tc.n, tc.requested, got, err, tc.want)
		}
	}
	for _, requested := range []int{-1, 10, 11} {
		if _, err := BootstrapDegree(cores(8), 10, requested); err == nil {
			t.Errorf("init degree %d accepted for n=10", requested)
		}
	}
	seeds := make([]peer.ID, 3)
	Circulant(8, 10, seeds)
	if want := []peer.ID{9, 0, 1}; !reflect.DeepEqual(seeds, want) {
		t.Errorf("Circulant(8, 10) = %v, want %v", seeds, want)
	}
}

// sized is a StepCore stub that only knows its view size, which is all
// BootstrapDegree asks a core.
type sized struct {
	protocol.StepCore
	s int
}

func (c sized) ViewSize() int { return c.s }
