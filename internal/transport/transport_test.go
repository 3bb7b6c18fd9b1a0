package transport

import (
	"bytes"
	"fmt"
	"net"
	"net/netip"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"sendforget/internal/faults"
	"sendforget/internal/loss"
	"sendforget/internal/peer"
	"sendforget/internal/protocol"
	"sendforget/internal/rng"
)

func TestCodecRoundtrip(t *testing.T) {
	tests := []protocol.Message{
		{Kind: protocol.KindGossip, From: 7, IDs: []peer.ID{7, 42}, Dup: true},
		{Kind: protocol.KindRequest, From: 0, IDs: []peer.ID{0}},
		{Kind: protocol.KindReply, From: 1000000, IDs: nil},
		{Kind: protocol.KindGossip, From: -1, IDs: []peer.ID{peer.Nil}},
	}
	for _, msg := range tests {
		buf, err := Marshal(msg)
		if err != nil {
			t.Fatalf("Marshal(%+v): %v", msg, err)
		}
		got, err := Unmarshal(buf)
		if err != nil {
			t.Fatalf("Unmarshal: %v", err)
		}
		if got.Kind != msg.Kind || got.From != msg.From || got.Dup != msg.Dup || len(got.IDs) != len(msg.IDs) {
			t.Fatalf("roundtrip mismatch: %+v != %+v", got, msg)
		}
		for i := range msg.IDs {
			if got.IDs[i] != msg.IDs[i] {
				t.Fatalf("id %d mismatch: %v != %v", i, got.IDs[i], msg.IDs[i])
			}
		}
	}
}

func TestCodecErrors(t *testing.T) {
	if _, err := Unmarshal([]byte{1, 2, 3}); err == nil {
		t.Error("short datagram accepted")
	}
	msg := protocol.Message{From: 1, IDs: []peer.ID{2, 3}}
	buf, err := Marshal(msg)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte{}, buf...)
	bad[0] = 0xFF // magic
	if _, err := Unmarshal(bad); err == nil {
		t.Error("bad magic accepted")
	}
	bad = append([]byte{}, buf...)
	bad[2] = 9 // version
	if _, err := Unmarshal(bad); err == nil {
		t.Error("bad version accepted")
	}
	if _, err := Unmarshal(buf[:len(buf)-1]); err == nil {
		t.Error("truncated payload accepted")
	}
	huge := protocol.Message{IDs: make([]peer.ID, 300)}
	if _, err := Marshal(huge); err == nil {
		t.Error("oversized id list accepted")
	}
}

func TestCodecQuickRoundtrip(t *testing.T) {
	f := func(kind uint8, from int32, dup bool, rawIDs []int32) bool {
		if len(rawIDs) > maxWireIDs {
			rawIDs = rawIDs[:maxWireIDs]
		}
		ids := make([]peer.ID, len(rawIDs))
		for i, v := range rawIDs {
			ids[i] = peer.ID(v)
		}
		msg := protocol.Message{Kind: protocol.Kind(kind), From: peer.ID(from), Dup: dup, IDs: ids}
		buf, err := Marshal(msg)
		if err != nil {
			return false
		}
		got, err := Unmarshal(buf)
		if err != nil {
			return false
		}
		if got.Kind != msg.Kind || got.From != msg.From || got.Dup != msg.Dup || len(got.IDs) != len(msg.IDs) {
			return false
		}
		for i := range msg.IDs {
			if got.IDs[i] != msg.IDs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNetworkDelivery(t *testing.T) {
	nw, err := NewNetwork(loss.None{}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var got []protocol.Message
	nw.Register(1, func(m protocol.Message) {
		mu.Lock()
		got = append(got, m)
		mu.Unlock()
	})
	nw.Send(1, protocol.Message{From: 0, IDs: []peer.ID{0, 2}})
	nw.Send(2, protocol.Message{From: 0}) // unroutable
	c := nw.Traffic()
	if c.Sends != 2 || c.Deliveries != 1 || c.DeadLetters != 1 || c.Losses != 0 {
		t.Errorf("counters = %+v", c)
	}
	if len(got) != 1 || got[0].From != 0 {
		t.Errorf("delivered = %+v", got)
	}
}

func TestNetworkLoss(t *testing.T) {
	nw, err := NewNetwork(loss.MustUniform(1), rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	delivered := 0
	nw.Register(1, func(protocol.Message) { delivered++ })
	for i := 0; i < 100; i++ {
		nw.Send(1, protocol.Message{From: 0})
	}
	if delivered != 0 {
		t.Errorf("delivered %d messages through 100%% loss", delivered)
	}
	if c := nw.Traffic(); c.Losses != 100 {
		t.Errorf("Losses = %d, want 100", c.Losses)
	}
}

func TestNetworkDeregister(t *testing.T) {
	nw, err := NewNetwork(loss.None{}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	nw.Register(1, func(protocol.Message) {})
	nw.Register(1, nil) // departed
	nw.Send(1, protocol.Message{From: 0})
	if c := nw.Traffic(); c.DeadLetters != 1 {
		t.Errorf("DeadLetters = %d, want 1", c.DeadLetters)
	}
}

func TestNetworkValidation(t *testing.T) {
	if _, err := NewNetwork(nil, rng.New(1)); err == nil {
		t.Error("accepted nil loss model")
	}
	if _, err := NewNetwork(loss.None{}, nil); err == nil {
		t.Error("accepted nil rng")
	}
}

func TestUDPEndpointRoundtrip(t *testing.T) {
	type rx struct {
		msg protocol.Message
	}
	ch := make(chan rx, 10)
	a, err := NewEndpoint("127.0.0.1:0", func(m protocol.Message) { ch <- rx{owned(m)} })
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewEndpoint("127.0.0.1:0", func(m protocol.Message) { ch <- rx{owned(m)} })
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := a.AddPeer(2, b.Addr().String()); err != nil {
		t.Fatal(err)
	}
	want := protocol.Message{Kind: protocol.KindGossip, From: 1, IDs: []peer.ID{1, 9}, Dup: true}
	if err := a.Send(2, want); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-ch:
		if got.msg.From != 1 || len(got.msg.IDs) != 2 || got.msg.IDs[1] != 9 || !got.msg.Dup {
			t.Errorf("received %+v", got.msg)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("datagram not received within 2s")
	}
	if c := a.Counters(); c.Sent != 1 {
		t.Errorf("sender counters = %+v", c)
	}
	// Unknown destination is a silent drop.
	if err := a.Send(99, want); err != nil {
		t.Fatal(err)
	}
	if c := a.Counters(); c.NoRoute != 1 {
		t.Errorf("NoRoute = %d, want 1", c.NoRoute)
	}
}

// owned copies the ids a handler borrows, so that the message may outlive
// the handler call (it is pushed into a channel).
func owned(m protocol.Message) protocol.Message {
	m.IDs = slices.Clone(m.IDs)
	return m
}

func TestUDPEndpointBadDatagram(t *testing.T) {
	// Garbage is counted and dropped, and the endpoint keeps going: after one
	// datagram of each malformation, the next good one is still delivered
	// with its ids.
	got := make(chan protocol.Message, 1)
	ep, err := NewEndpoint("127.0.0.1:0", func(m protocol.Message) { got <- owned(m) })
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	conn, err := net.Dial("udp", ep.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	msg := protocol.Message{Kind: protocol.KindGossip, From: 5, IDs: []peer.ID{5, 6}}
	v1, err := Marshal(msg)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := MarshalAddressed(msg, []string{"127.0.0.1:9", ""})
	if err != nil {
		t.Fatal(err)
	}
	badMagic, oneID := bytes.Clone(v1), bytes.Clone(v2)
	badMagic[0] = 0xff
	oneID[9] = 1 // the trailer holds more entries than the header has ids
	bad := [][]byte{
		{0xde, 0xad, 0xbe, 0xef},
		badMagic,
		v1[:len(v1)-1],             // short version 1
		oneID,                      // version-2 trailer count mismatch
		v2[:len(v2)-1],             // version-2 trailer cut short
		append(bytes.Clone(v2), 0), // trailing bytes
	}
	for _, b := range append(bad, v2) {
		if _, err := conn.Write(b); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case m := <-got:
		if m.From != 5 || !slices.Equal(m.IDs, msg.IDs) {
			t.Errorf("delivered %+v, want the good datagram %+v", m, msg)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("good datagram after the garbage not delivered within 2s")
	}
	if n := ep.DecodeErrors(); n != len(bad) {
		t.Errorf("DecodeErrors = %d, want %d", n, len(bad))
	}
}

func TestUDPEndpointValidation(t *testing.T) {
	if _, err := NewEndpoint("127.0.0.1:0", nil); err == nil {
		t.Error("accepted nil handler")
	}
	if _, err := NewEndpoint("not-an-addr:xx", func(protocol.Message) {}); err == nil {
		t.Error("accepted invalid listen address")
	}
	ep, err := NewEndpoint("127.0.0.1:0", func(protocol.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	for _, addr := range []string{"bad:addr:xx", ":7000"} {
		if err := ep.AddPeer(1, addr); err == nil {
			t.Errorf("accepted invalid peer address %q", addr)
		}
	}
}

func TestUDPEndpointCloseIdempotent(t *testing.T) {
	ep, err := NewEndpoint("127.0.0.1:0", func(protocol.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := ep.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ep.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

func TestAddressedCodecRoundtrip(t *testing.T) {
	msg := protocol.Message{Kind: protocol.KindGossip, From: 3, IDs: []peer.ID{3, 9}, Dup: true}
	addrs := []string{"127.0.0.1:7000", ""}
	buf, err := MarshalAddressed(msg, addrs)
	if err != nil {
		t.Fatal(err)
	}
	got, gotAddrs, err := UnmarshalAddressed(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.From != 3 || len(got.IDs) != 2 || !got.Dup {
		t.Errorf("message = %+v", got)
	}
	if len(gotAddrs) != 2 || gotAddrs[0] != addrs[0] || gotAddrs[1] != "" {
		t.Errorf("addrs = %v, want %v", gotAddrs, addrs)
	}
	// Plain Unmarshal accepts v2 and drops the trailer.
	plain, err := Unmarshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	if plain.From != 3 {
		t.Errorf("plain decode = %+v", plain)
	}
}

func TestAddressedCodecErrors(t *testing.T) {
	msg := protocol.Message{From: 1, IDs: []peer.ID{2}}
	if _, err := MarshalAddressed(msg, nil); err == nil {
		t.Error("accepted mismatched address count")
	}
	long := make([]byte, 300)
	if _, err := MarshalAddressed(msg, []string{string(long)}); err == nil {
		t.Error("accepted oversized address")
	}
	buf, err := MarshalAddressed(msg, []string{"127.0.0.1:1"})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := UnmarshalAddressed(buf[:len(buf)-2]); err == nil {
		t.Error("accepted truncated trailer")
	}
	if _, _, err := UnmarshalAddressed(append(buf, 0xFF)); err == nil {
		t.Error("accepted trailing bytes")
	}
}

func TestUDPAddressLearning(t *testing.T) {
	// Three endpoints; C starts knowing only B. A gossips its own id plus
	// C's id to B with addresses attached; then B gossips [B, A] to C, and
	// C must learn A's address both ways.
	received := func() (chan protocol.Message, func(protocol.Message)) {
		ch := make(chan protocol.Message, 16)
		return ch, func(m protocol.Message) { ch <- owned(m) }
	}
	chA, hA := received()
	a, err := NewEndpoint("127.0.0.1:0", hA)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	chB, hB := received()
	b, err := NewEndpoint("127.0.0.1:0", hB)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	chC, hC := received()
	c, err := NewEndpoint("127.0.0.1:0", hC)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_ = chA
	for _, setup := range []struct {
		ep *Endpoint
		id peer.ID
	}{{a, 0}, {b, 1}, {c, 2}} {
		if err := setup.ep.EnableAddressLearning(setup.id, setup.ep.Addr().String()); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.AddPeer(1, b.Addr().String()); err != nil {
		t.Fatal(err)
	}
	if err := a.AddPeer(2, c.Addr().String()); err != nil {
		t.Fatal(err)
	}
	if err := c.AddPeer(1, b.Addr().String()); err != nil {
		t.Fatal(err)
	}
	// A -> B carrying [A, C]: B learns A (from source) and C (from trailer).
	if err := a.Send(1, protocol.Message{Kind: protocol.KindGossip, From: 0, IDs: []peer.ID{0, 2}}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-chB:
	case <-time.After(2 * time.Second):
		t.Fatal("B received nothing")
	}
	if b.KnownPeers() < 2 || b.LearnedPeers() < 2 {
		t.Fatalf("B knows %d peers (learned %d), want >= 2 learned", b.KnownPeers(), b.LearnedPeers())
	}
	// B -> C carrying [B, A]: C learns A's address from the trailer.
	if err := b.Send(2, protocol.Message{Kind: protocol.KindGossip, From: 1, IDs: []peer.ID{1, 0}}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-chC:
	case <-time.After(2 * time.Second):
		t.Fatal("C received nothing")
	}
	// C can now route to A directly.
	if err := c.Send(0, protocol.Message{Kind: protocol.KindGossip, From: 2, IDs: []peer.ID{2, 1}}); err != nil {
		t.Fatal(err)
	}
	if nr := c.Counters().NoRoute; nr != 0 {
		t.Errorf("C had %d unroutable sends after learning", nr)
	}
	select {
	case m := <-chA:
		if m.From != 2 {
			t.Errorf("A received %+v, want from n2", m)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("A never heard from C: address not learned")
	}
}

func TestEnableAddressLearningValidation(t *testing.T) {
	ep, err := NewEndpoint("127.0.0.1:0", func(protocol.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	if err := ep.EnableAddressLearning(0, ""); err == nil {
		t.Error("accepted empty advertise address")
	}
	if err := ep.EnableAddressLearning(0, "not:an:addr:x"); err == nil {
		t.Error("accepted invalid advertise address")
	}
}

func TestUDPRelearnAfterRejoin(t *testing.T) {
	// A node that leaves and rejoins from a new port must have its
	// directory entry refreshed at peers when its datagrams arrive from the
	// new source address. Before learn() distinguished authoritative
	// source addresses, the stale entry stuck forever and every reply went
	// to the dead port.
	chB := make(chan protocol.Message, 16)
	b, err := NewEndpoint("127.0.0.1:0", func(m protocol.Message) { chB <- owned(m) })
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.EnableAddressLearning(1, b.Addr().String()); err != nil {
		t.Fatal(err)
	}

	chA1 := make(chan protocol.Message, 16)
	a1, err := NewEndpoint("127.0.0.1:0", func(m protocol.Message) { chA1 <- owned(m) })
	if err != nil {
		t.Fatal(err)
	}
	if err := a1.EnableAddressLearning(0, a1.Addr().String()); err != nil {
		t.Fatal(err)
	}
	if err := a1.AddPeer(1, b.Addr().String()); err != nil {
		t.Fatal(err)
	}
	if err := a1.Send(1, protocol.Message{Kind: protocol.KindGossip, From: 0, IDs: []peer.ID{0}}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-chB:
	case <-time.After(2 * time.Second):
		t.Fatal("B never heard A's first incarnation")
	}
	if b.LearnedPeers() != 1 || b.RefreshedPeers() != 0 {
		t.Fatalf("after first contact: learned=%d refreshed=%d, want 1/0", b.LearnedPeers(), b.RefreshedPeers())
	}
	oldAddr := a1.Addr().String()
	if err := a1.Close(); err != nil {
		t.Fatal(err)
	}

	// Rejoin on a fresh port (guaranteed different from oldAddr since the
	// old socket's port can't be reused while we hold the new one first).
	chA2 := make(chan protocol.Message, 16)
	a2, err := NewEndpoint("127.0.0.1:0", func(m protocol.Message) { chA2 <- owned(m) })
	if err != nil {
		t.Fatal(err)
	}
	defer a2.Close()
	if a2.Addr().String() == oldAddr {
		t.Skipf("OS reassigned the same ephemeral port %s; cannot exercise relearn", oldAddr)
	}
	if err := a2.EnableAddressLearning(0, a2.Addr().String()); err != nil {
		t.Fatal(err)
	}
	if err := a2.AddPeer(1, b.Addr().String()); err != nil {
		t.Fatal(err)
	}
	if err := a2.Send(1, protocol.Message{Kind: protocol.KindGossip, From: 0, IDs: []peer.ID{0}}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-chB:
	case <-time.After(2 * time.Second):
		t.Fatal("B never heard A's second incarnation")
	}
	if b.RefreshedPeers() != 1 {
		t.Fatalf("refreshed=%d, want 1 (stale directory entry not rewritten)", b.RefreshedPeers())
	}
	// B can reach the rejoined A at its new address.
	if err := b.Send(0, protocol.Message{Kind: protocol.KindGossip, From: 1, IDs: []peer.ID{1}}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-chA2:
		if m.From != 1 {
			t.Errorf("rejoined A received %+v, want from n1", m)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("B still routed to the dead port after rejoin")
	}
}

func TestUDPTrailerCannotClobberFreshEntry(t *testing.T) {
	// Trailer addresses are second-hand gossip: they may insert unknown
	// peers but must never overwrite an existing entry. Otherwise one stale
	// trailer would undo a refresh learned from a live source address.
	chB := make(chan protocol.Message, 16)
	b, err := NewEndpoint("127.0.0.1:0", func(m protocol.Message) { chB <- owned(m) })
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.EnableAddressLearning(1, b.Addr().String()); err != nil {
		t.Fatal(err)
	}
	chA := make(chan protocol.Message, 16)
	a, err := NewEndpoint("127.0.0.1:0", func(m protocol.Message) { chA <- owned(m) })
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.EnableAddressLearning(0, a.Addr().String()); err != nil {
		t.Fatal(err)
	}
	if err := a.AddPeer(1, b.Addr().String()); err != nil {
		t.Fatal(err)
	}
	// B learns A's address from the datagram source.
	if err := a.Send(1, protocol.Message{Kind: protocol.KindGossip, From: 0, IDs: []peer.ID{0}}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-chB:
	case <-time.After(2 * time.Second):
		t.Fatal("B never heard A")
	}
	// A gossips a bogus trailer address for itself; the fresh source-learned
	// entry must survive.
	if err := a.AddPeer(0, "127.0.0.1:1"); err == nil {
		// AddPeer for self may be rejected; the trailer path below is what
		// matters either way.
		_ = err
	}
	if err := a.Send(1, protocol.Message{Kind: protocol.KindGossip, From: 0, IDs: []peer.ID{0}}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-chB:
	case <-time.After(2 * time.Second):
		t.Fatal("B never heard A's second gossip")
	}
	// B can still reach A: the entry points at the live source address.
	if err := b.Send(0, protocol.Message{Kind: protocol.KindGossip, From: 1, IDs: []peer.ID{1}}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-chA:
	case <-time.After(2 * time.Second):
		t.Fatal("B lost A's address to a stale trailer")
	}
}

func TestUDPTrailerHostnameNotResolved(t *testing.T) {
	// Trailer strings are hostile input: a name in one must never reach the
	// resolver (the lookup would run on the receive goroutine under the lock
	// every Send takes). Only literal ip:port entries are learned.
	got := make(chan protocol.Message, 1)
	ep, err := NewEndpoint("127.0.0.1:0", func(m protocol.Message) { got <- owned(m) })
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	if err := ep.EnableAddressLearning(0, ep.Addr().String()); err != nil {
		t.Fatal(err)
	}
	payload, err := MarshalAddressed(
		protocol.Message{Kind: protocol.KindGossip, From: 5, IDs: []peer.ID{7, 8}},
		[]string{"localhost:9", "127.0.0.1:9"})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("udp", ep.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(payload); err != nil {
		t.Fatal(err)
	}
	select {
	case <-got:
	case <-time.After(2 * time.Second):
		t.Fatal("datagram not delivered")
	}
	// Learned: the sender (5, from the source address) and id 8 (literal
	// trailer entry). Id 7's entry names a host and is ignored.
	if n := ep.LearnedPeers(); n != 2 {
		t.Errorf("LearnedPeers = %d, want 2 (sender and the literal entry; localhost:9 must not be resolved)", n)
	}
}

func TestUDPAddressIdentity(t *testing.T) {
	// Directory entries compare as unmapped netip.AddrPorts. A knows B as
	// "localhost:p" (resolved once, possibly to an IPv4-mapped net.IP), B
	// knows A as "127.0.0.1:p": traffic both ways must route and must never
	// count as a refresh, and neither may an IPv4-mapped sighting of a plain
	// IPv4 entry.
	if ua, err := net.ResolveUDPAddr("udp", "localhost:0"); err != nil || ua.IP.To4() == nil {
		t.Skipf("localhost does not resolve to IPv4 here: %v %v", ua, err)
	}
	chA, chB := make(chan protocol.Message, 1), make(chan protocol.Message, 1)
	a, err := NewEndpoint("127.0.0.1:0", func(m protocol.Message) { chA <- owned(m) })
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewEndpoint("127.0.0.1:0", func(m protocol.Message) { chB <- owned(m) })
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for _, err := range []error{
		a.EnableAddressLearning(0, a.Addr().String()),
		b.EnableAddressLearning(1, b.Addr().String()),
		a.AddPeer(1, net.JoinHostPort("localhost", fmt.Sprint(b.Addr().Port))),
		b.AddPeer(0, a.Addr().String()),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	exchange := func(from *Endpoint, fromID, to peer.ID, ch chan protocol.Message) {
		t.Helper()
		if err := from.Send(to, protocol.Message{Kind: protocol.KindGossip, From: fromID, IDs: []peer.ID{fromID, to}}); err != nil {
			t.Fatal(err)
		}
		select {
		case m := <-ch:
			if m.From != fromID || !slices.Equal(m.IDs, []peer.ID{fromID, to}) {
				t.Fatalf("received %+v", m)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("n%d -> n%d not delivered", fromID, to)
		}
	}
	for i := 0; i < 20; i++ {
		exchange(a, 0, 1, chB)
		exchange(b, 1, 0, chA)
	}
	mapped := netip.AddrPortFrom(netip.AddrFrom16(netip.MustParseAddr("127.0.0.1").As16()), uint16(a.Addr().Port))
	b.mu.Lock()
	b.learn(0, mapped, true)
	b.mu.Unlock()
	for _, ep := range []*Endpoint{a, b} {
		if r, l := ep.RefreshedPeers(), ep.LearnedPeers(); r != 0 || l != 0 {
			t.Errorf("%v: refreshed %d, learned %d; want 0 and 0 (every sighting matches the configured entry)", ep.Addr(), r, l)
		}
	}
}

func TestUDPSendWireBytes(t *testing.T) {
	// Send puts on the wire exactly what Marshal encodes, and with address
	// learning on exactly what MarshalAddressed does: the advertise address
	// for the endpoint's own id, the directory's entry for a known id, and
	// nothing for an unknown one.
	raw, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	ep, err := NewEndpoint("127.0.0.1:0", func(protocol.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	if err := ep.AddPeer(1, raw.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}
	if err := ep.AddPeer(2, "127.0.0.1:9"); err != nil {
		t.Fatal(err)
	}
	msg := protocol.Message{Kind: protocol.KindGossip, From: 0, IDs: []peer.ID{0, 2, 3}, Dup: true}
	check := func(want []byte, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if err := ep.Send(1, msg); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 512)
		if err := raw.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
			t.Fatal(err)
		}
		n, _, err := raw.ReadFromUDP(buf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf[:n], want) {
			t.Errorf("sent %x, want %x", buf[:n], want)
		}
	}
	check(Marshal(msg))
	if err := ep.EnableAddressLearning(0, "127.0.0.1:7000"); err != nil {
		t.Fatal(err)
	}
	check(MarshalAddressed(msg, []string{"127.0.0.1:7000", "127.0.0.1:9", ""}))
}

// TestEndpointZeroAlloc holds a warmed-up endpoint with address learning on
// to no allocation: not for a Send to a known peer, and not for a Send whose
// datagram the other endpoint receives, decodes, learns from and hands to
// its handler.
func TestEndpointZeroAlloc(t *testing.T) {
	handled := make(chan struct{}, 1)
	a, err := NewEndpoint("127.0.0.1:0", func(protocol.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewEndpoint("127.0.0.1:0", func(protocol.Message) {
		select {
		case handled <- struct{}{}:
		default:
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for _, err := range []error{
		a.EnableAddressLearning(0, a.Addr().String()),
		b.EnableAddressLearning(1, b.Addr().String()),
		a.AddPeer(1, b.Addr().String()),
		a.AddPeer(2, "127.0.0.1:9"),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	msg := protocol.Message{Kind: protocol.KindGossip, From: 0, IDs: []peer.ID{0, 2}}
	send := func() {
		if err := a.Send(1, msg); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.After(10 * time.Second)
	roundTrip := func() {
		send()
		select {
		case <-handled:
		case <-deadline:
			t.Fatal("datagram not handled")
		}
	}
	roundTrip() // b learns n0 from the source address and n2 from the trailer
	if n := b.LearnedPeers(); n != 2 {
		t.Fatalf("b learned %d peers, want 2", n)
	}
	if allocs := testing.AllocsPerRun(100, roundTrip); allocs != 0 {
		t.Errorf("send and receive: %v allocs/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, send); allocs != 0 {
		t.Errorf("send: %v allocs/op, want 0", allocs)
	}
}

func TestNetworkSentAccountingUnified(t *testing.T) {
	// Every attempt increments Sent and lands in exactly one of Lost,
	// NoRoute, Delivered — including unroutable and dropped sends.
	lm, err := loss.NewUniform(0)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := NewNetwork(lm, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	nw.Register(1, func(protocol.Message) { got++ })
	msg := protocol.Message{Kind: protocol.KindGossip, From: 0, IDs: []peer.ID{0}}
	nw.Send(1, msg) // delivered
	nw.Send(9, msg) // no route
	nw.Conditions().Partition([]peer.ID{0}, []peer.ID{1})
	nw.Send(1, msg) // partition drop
	nw.Conditions().Heal()
	c := nw.Traffic()
	if c.Sends != 3 {
		t.Errorf("Sends = %d, want 3 (every attempt counted)", c.Sends)
	}
	if c.Sends != c.Losses+c.Deliveries+c.DeadLetters {
		t.Errorf("counter identity violated: %+v", c)
	}
	if c.PartitionDrops != 1 || c.Losses != 1 || c.DeadLetters != 1 || c.Deliveries != 1 || got != 1 {
		t.Errorf("counters = %+v (handled %d), want one of each", c, got)
	}
}

func TestNetworkLinkOverride(t *testing.T) {
	lm, err := loss.NewUniform(0)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := NewNetwork(lm, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	nw.Register(1, func(protocol.Message) {})
	nw.Register(2, func(protocol.Message) {})
	always, err := loss.NewUniform(1)
	if err != nil {
		t.Fatal(err)
	}
	nw.Conditions().SetLinkLoss(0, 1, always)
	msg := protocol.Message{Kind: protocol.KindGossip, From: 0, IDs: []peer.ID{0}}
	for i := 0; i < 10; i++ {
		nw.Send(1, msg)
		nw.Send(2, msg)
	}
	c := nw.Traffic()
	if c.LinkLosses != 10 || c.Losses != 10 {
		t.Errorf("link 0->1 should drop all 10: %+v", c)
	}
	if c.Deliveries != 10 {
		t.Errorf("link 0->2 should deliver all 10: %+v", c)
	}
}

func TestNetworkDelayAndReorder(t *testing.T) {
	// Jittered delay reorders messages; Advance drains in (due, enqueue)
	// order and the counter identity holds once the queue is empty.
	lm, err := loss.NewUniform(0)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := NewNetwork(lm, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.Conditions().SetDelay(faults.Delay{Fixed: 1, Jitter: 3}); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var order []peer.ID
	nw.Register(1, func(m protocol.Message) {
		mu.Lock()
		order = append(order, m.From)
		mu.Unlock()
	})
	const total = 40
	for i := 0; i < total; i++ {
		nw.Send(1, protocol.Message{Kind: protocol.KindGossip, From: peer.ID(i), IDs: []peer.ID{peer.ID(i)}})
	}
	if c := nw.Traffic(); c.Delayed != total || c.Deliveries != 0 {
		t.Fatalf("before drain: %+v, want all %d delayed", c, total)
	}
	if nw.Pending() != total {
		t.Fatalf("pending = %d, want %d", nw.Pending(), total)
	}
	for i := 0; i < 8 && nw.Pending() > 0; i++ {
		nw.Advance()
	}
	c := nw.Traffic()
	if nw.Pending() != 0 || c.Deliveries != total {
		t.Fatalf("after drain: pending=%d counters=%+v", nw.Pending(), c)
	}
	if c.Sends != c.Losses+c.Deliveries+c.DeadLetters {
		t.Errorf("counter identity violated after drain: %+v", c)
	}
	reordered := false
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			reordered = true
			break
		}
	}
	if !reordered {
		t.Error("jitter 3 over 40 sends produced no reordering (suspicious for this seed)")
	}
}

func TestNetworkDelayedToDepartedIsDeadLetter(t *testing.T) {
	// Routing resolves at drain time: a message delayed toward a node that
	// deregistered while it was in flight counts as NoRoute, keeping the
	// identity exact.
	lm, err := loss.NewUniform(0)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := NewNetwork(lm, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.Conditions().SetDelay(faults.Delay{Fixed: 2}); err != nil {
		t.Fatal(err)
	}
	nw.Register(1, func(protocol.Message) { t.Error("delivered to departed node") })
	nw.Send(1, protocol.Message{Kind: protocol.KindGossip, From: 0, IDs: []peer.ID{0}})
	nw.Register(1, nil) // node departs while the message is in flight
	for i := 0; i < 4; i++ {
		nw.Advance()
	}
	c := nw.Traffic()
	if c.DeadLetters != 1 || c.Deliveries != 0 || nw.Pending() != 0 {
		t.Errorf("counters = %+v pending=%d, want the delayed message dead-lettered", c, nw.Pending())
	}
	if c.Sends != c.Losses+c.Deliveries+c.DeadLetters {
		t.Errorf("counter identity violated: %+v", c)
	}
}

func TestNetworkDelayedResendUnderConcurrentSends(t *testing.T) {
	// The router's delay calendar hands Advance messages that alias calendar
	// storage until the next tick, and Advance runs the handlers after it
	// has released the lock. Here handlers re-send what they received while
	// other goroutines Send and Advance concurrently, under the two delays
	// that aim at the bucket a drain has handed out (the calendar starts
	// four rounds long): delay 4 maps to it at once and must grow the ring
	// instead; delay 3 maps to it as soon as another goroutine's Advance has
	// ticked, which is why Advance copies the ids out under the lock. Every
	// message must arrive intact, none may be stranded, and the race
	// detector must stay quiet.
	for _, delay := range []int{3, 4} {
		nw, err := NewNetworkWithConditions(faults.Lossless(), rng.New(11))
		if err != nil {
			t.Fatal(err)
		}
		if err := nw.Conditions().SetDelay(faults.Delay{Fixed: delay}); err != nil {
			t.Fatal(err)
		}
		const senders, perSender, hops = 4, 50, 3
		var delivered atomic.Int64
		handler := func(m protocol.Message) {
			for i, id := range m.IDs {
				if id != m.IDs[0]+peer.ID(i) {
					t.Errorf("delay %d: delivered ids %v are not the run that was sent", delay, m.IDs)
					break
				}
			}
			delivered.Add(1)
			if hop := int(m.From); hop < hops {
				nw.Send(peer.ID(1+hop%2), protocol.Message{Kind: m.Kind, From: peer.ID(hop + 1), IDs: m.IDs})
			}
		}
		nw.Register(1, handler)
		nw.Register(2, handler)

		var wg sync.WaitGroup
		for s := 0; s < senders; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				for i := 0; i < perSender; i++ {
					base := peer.ID(1000*s + 10*i)
					nw.Send(1, protocol.Message{Kind: protocol.KindGossip, From: 0, IDs: []peer.ID{base, base + 1, base + 2, base + 3}})
				}
			}(s)
		}
		const want = senders * perSender * (hops + 1)
		for a := 0; a < 2; a++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 100000 && delivered.Load() < want; i++ {
					nw.Advance()
				}
			}()
		}
		wg.Wait()
		for i := 0; i < 64 && nw.Pending() > 0; i++ {
			nw.Advance()
		}
		c := nw.Traffic()
		if got := delivered.Load(); got != want || nw.Pending() != 0 || !c.Conserved() || c.Deliveries != want {
			t.Errorf("delay %d: delivered %d of %d, pending %d, ledger %+v", delay, got, want, nw.Pending(), c)
		}
	}
}
