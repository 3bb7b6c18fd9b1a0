package transport

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"

	"sendforget/internal/peer"
	"sendforget/internal/protocol"
)

// Counters is what a real socket can count on its own: Sent is every
// attempted transmission (incremented before encoding and the route lookup,
// the semantics of metrics.Traffic.Sends), NoRoute the attempts with no
// directory entry for the destination, Delivered the datagrams decoded and
// handed to the handler. What the network did to a datagram in between is
// invisible to an endpoint, so it keeps no loss counts.
type Counters struct {
	Sent      int
	Delivered int
	NoRoute   int
}

// route is a directory entry: a peer's address, unmapped so that == tells
// whether two sightings name one socket, and its trailer text, formatted once.
type route struct {
	addr    netip.AddrPort
	trailer string
}

func unmapped(addr netip.AddrPort) netip.AddrPort {
	return netip.AddrPortFrom(addr.Addr().Unmap(), addr.Port())
}

// Endpoint is a UDP transport endpoint: it listens on one socket,
// dispatches decoded datagrams to a handler, and sends fire-and-forget
// datagrams to peers by address. S&F tolerates loss by design, so a lost or
// undecodable datagram is simply counted and dropped. Warmed up, it sends
// and receives without allocating.
type Endpoint struct {
	conn    *net.UDPConn
	handler Handler

	sendMu   sync.Mutex // taken by Send before mu; guards the two below
	buf      []byte     // the datagram being sent
	trailers []string   // its trailer entries, looked up under mu

	mu         sync.Mutex
	peers      map[peer.ID]route
	counters   Counters
	decodeErrs int
	advertise  string // non-empty enables addressed (v2) gossip
	selfID     peer.ID
	learned    int
	refreshed  int

	wg        sync.WaitGroup
	closeOnce sync.Once
}

// NewEndpoint opens a UDP socket on listenAddr (e.g. "127.0.0.1:0") and
// starts the receive loop. The handler runs on the receive goroutine.
func NewEndpoint(listenAddr string, handler Handler) (*Endpoint, error) {
	if handler == nil {
		return nil, fmt.Errorf("transport: nil handler")
	}
	addr, err := net.ResolveUDPAddr("udp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("transport: resolve %q: %w", listenAddr, err)
	}
	conn, err := net.ListenUDP("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %q: %w", listenAddr, err)
	}
	ep := &Endpoint{conn: conn, handler: handler, peers: make(map[peer.ID]route)}
	ep.wg.Add(1)
	go ep.receiveLoop(make([]byte, 64*1024))
	return ep, nil
}

// Addr returns the bound local address.
func (ep *Endpoint) Addr() *net.UDPAddr { return ep.conn.LocalAddr().(*net.UDPAddr) }

// AddPeer maps a node id to a UDP address. In a deployment this directory
// comes from the join bootstrap (the seed list); S&F itself only ever needs
// id -> address resolution for ids in the local view.
func (ep *Endpoint) AddPeer(id peer.ID, addr string) error {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err == nil && ua.IP == nil {
		err = errors.New("no host")
	}
	if err != nil {
		return fmt.Errorf("transport: resolve peer %v at %q: %w", id, addr, err)
	}
	ap := unmapped(ua.AddrPort())
	ep.mu.Lock()
	defer ep.mu.Unlock()
	ep.peers[id] = route{ap, ap.String()}
	return nil
}

// EnableAddressLearning switches the endpoint to addressed (version-2)
// gossip: outgoing messages carry the best-known address of every id
// (advertise for selfID), and incoming ones fill the directory, the sender's
// entry from the datagram source and the payload ids' from the trailer. A
// node then needs only its seed peers' addresses, matching the paper's
// framing of ids as "IP addresses and ports".
func (ep *Endpoint) EnableAddressLearning(selfID peer.ID, advertise string) error {
	if advertise == "" {
		return fmt.Errorf("transport: empty advertise address")
	}
	if _, err := net.ResolveUDPAddr("udp", advertise); err != nil {
		return fmt.Errorf("transport: advertise %q: %w", advertise, err)
	}
	ep.mu.Lock()
	defer ep.mu.Unlock()
	ep.advertise = advertise
	ep.selfID = selfID
	return nil
}

// LearnedPeers returns how many directory entries were added by address
// learning.
func (ep *Endpoint) LearnedPeers() int {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.learned
}

// RefreshedPeers returns how many directory entries were rewritten because a
// datagram's source address disagreed with the stored one (a peer that
// rejoined on a new port).
func (ep *Endpoint) RefreshedPeers() int {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.refreshed
}

// KnownPeers returns the number of directory entries.
func (ep *Endpoint) KnownPeers() int {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return len(ep.peers)
}

// Send encodes msg and transmits it to the address registered for to. An
// unknown destination counts as unroutable (the datagram is dropped, as a
// real network would for a departed node). With address learning enabled,
// the datagram carries the directory's best-known address per id.
//
// Sent counts every attempt — before encoding and the route lookup — so the
// figure is comparable with metrics.Traffic.Sends on the simulated
// substrates. ep.mu covers the counters and the directory lookups only.
func (ep *Endpoint) Send(to peer.ID, msg protocol.Message) error {
	ep.sendMu.Lock()
	defer ep.sendMu.Unlock()
	ep.mu.Lock()
	ep.counters.Sent++
	dst, routed := ep.peers[to]
	version, trailers := byte(wireVersion), ep.trailers[:0]
	if ep.advertise != "" {
		version = wireVersion2
		for _, id := range msg.IDs {
			r := ep.peers[id]
			if id == ep.selfID {
				r.trailer = ep.advertise
			}
			trailers = append(trailers, r.trailer)
		}
	}
	ep.mu.Unlock()
	buf, err := appendWire(ep.buf[:0], version, msg.Kind, msg.From, msg.Dup, msg.IDs, trailers)
	ep.buf, ep.trailers = buf, trailers
	if err != nil {
		return err
	}
	if !routed {
		ep.mu.Lock()
		ep.counters.NoRoute++
		ep.mu.Unlock()
		return nil
	}
	if _, err := ep.conn.WriteToUDPAddrPort(ep.buf, dst.addr); err != nil && !errors.Is(err, net.ErrClosed) {
		return fmt.Errorf("transport: send to %v: %w", to, err)
	}
	return nil
}

// Counters returns a snapshot of the endpoint counters.
func (ep *Endpoint) Counters() Counters {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.counters
}

// DecodeErrors returns the number of undecodable datagrams received.
func (ep *Endpoint) DecodeErrors() int {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.decodeErrs
}

// Close shuts the socket and waits for the receive loop; later calls are no-ops.
func (ep *Endpoint) Close() (err error) {
	ep.closeOnce.Do(func() {
		err = ep.conn.Close()
		ep.wg.Wait()
	})
	return err
}

// receiveLoop decodes each datagram in place, into ids it lends the handler.
// buf, the largest datagram's room, is on the heap, handed over by
// NewEndpoint: made here it would not escape, and every receive goroutine
// would grow its stack to hold (and zero) the 64 KiB.
func (ep *Endpoint) receiveLoop(buf []byte) {
	defer ep.wg.Done()
	ids := make([]peer.ID, 0, maxWireIDs)
	for {
		n, src, err := ep.conn.ReadFromUDPAddrPort(buf)
		if errors.Is(err, net.ErrClosed) {
			return
		} else if err != nil {
			continue
		}
		msg, trailer, err := decode(buf[:n], ids)
		ep.mu.Lock()
		if err != nil {
			ep.decodeErrs++
			ep.mu.Unlock()
			continue
		}
		ep.counters.Delivered++
		if ep.advertise != "" {
			// Learn the sender's address from the datagram source (which is
			// authoritative: the peer demonstrably sends from there, so a
			// disagreeing stored entry is stale and gets refreshed) and the
			// payload ids' addresses from the trailer (second-hand gossip:
			// insert-only, so a stale trailer cannot clobber a fresh entry).
			ep.learn(msg.From, src, true)
			for i := 0; trailer != 0 && i < len(msg.IDs); i++ {
				var a []byte
				a, trailer = trailerEntry(buf[:n], trailer) // decode checked every entry
				if _, known := ep.peers[msg.IDs[i]]; known || msg.IDs[i] == ep.selfID || len(a) == 0 {
					continue
				}
				// Trailer bytes come off the wire: only a literal ip:port is
				// taken, never a name to resolve — a lookup here would stall
				// every Send behind ep.mu on a peer's say-so.
				if ap, err := netip.ParseAddrPort(string(a)); err == nil {
					ep.learn(msg.IDs[i], ap, false)
				}
			}
		}
		ep.mu.Unlock()
		ep.handler(msg)
	}
}

// learn inserts a directory entry if absent; when authoritative, it also
// refreshes one whose address differs, so a node that rejoins on a new port
// is reachable again. Callers hold ep.mu.
func (ep *Endpoint) learn(id peer.ID, addr netip.AddrPort, authoritative bool) {
	addr = unmapped(addr)
	old, known := ep.peers[id]
	if id == ep.selfID || known && (!authoritative || old.addr == addr) {
		return
	}
	ep.peers[id] = route{addr, addr.String()}
	if known {
		ep.refreshed++
	} else {
		ep.learned++
	}
}
