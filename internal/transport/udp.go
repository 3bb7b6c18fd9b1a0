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
// attempted transmission (incremented before marshalling and the route
// lookup, the semantics of metrics.Traffic.Sends), NoRoute the attempts with
// no directory entry for the destination, Delivered the datagrams decoded
// and handed to the handler. What the network did to a datagram in between
// is invisible to an endpoint, so it keeps no loss counts.
type Counters struct {
	Sent      int
	Delivered int
	NoRoute   int
}

// Endpoint is a UDP transport endpoint: it listens on one socket,
// dispatches decoded datagrams to a handler, and sends fire-and-forget
// datagrams to peers by address. S&F tolerates loss by design, so a lost or
// undecodable datagram is simply counted and dropped.
type Endpoint struct {
	conn    *net.UDPConn
	handler Handler

	mu         sync.Mutex
	peers      map[peer.ID]*net.UDPAddr
	counters   Counters
	decodeErrs int
	advertise  string // non-empty enables addressed (v2) gossip
	selfID     peer.ID
	learned    int
	refreshed  int

	wg     sync.WaitGroup
	closed chan struct{}
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
	ep := &Endpoint{
		conn:    conn,
		handler: handler,
		peers:   make(map[peer.ID]*net.UDPAddr),
		closed:  make(chan struct{}),
	}
	ep.wg.Add(1)
	go ep.receiveLoop()
	return ep, nil
}

// Addr returns the bound local address.
func (ep *Endpoint) Addr() *net.UDPAddr { return ep.conn.LocalAddr().(*net.UDPAddr) }

// AddPeer maps a node id to a UDP address. In a deployment this directory
// comes from the join bootstrap (the seed list); S&F itself only ever needs
// id -> address resolution for ids in the local view.
func (ep *Endpoint) AddPeer(id peer.ID, addr string) error {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return fmt.Errorf("transport: resolve peer %v at %q: %w", id, addr, err)
	}
	ep.mu.Lock()
	defer ep.mu.Unlock()
	ep.peers[id] = ua
	return nil
}

// EnableAddressLearning switches the endpoint to addressed (version-2)
// gossip: outgoing messages carry the best-known address for every id (the
// advertise address for selfID), and incoming messages populate the
// directory — from the datagram's source address for the sender id and from
// the address trailer for payload ids. With it, a node needs only its seed
// peers' addresses; the rest of the directory builds itself, matching the
// paper's framing of ids as "IP addresses and ports".
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

// Send marshals and transmits msg to the address registered for to. An
// unknown destination counts as unroutable (the datagram is dropped, as a
// real network would for a departed node). With address learning enabled,
// the datagram carries the directory's best-known address per id.
//
// Sent counts every attempt — before marshalling and the route lookup — so
// the figure is comparable with metrics.Traffic.Sends on the simulated
// substrates.
func (ep *Endpoint) Send(to peer.ID, msg protocol.Message) error {
	ep.mu.Lock()
	ep.counters.Sent++
	var payload []byte
	var err error
	if ep.advertise != "" {
		addrs := make([]string, len(msg.IDs))
		for i, id := range msg.IDs {
			switch {
			case id == ep.selfID:
				addrs[i] = ep.advertise
			default:
				if a, ok := ep.peers[id]; ok {
					addrs[i] = a.String()
				}
			}
		}
		payload, err = MarshalAddressed(msg, addrs)
	} else {
		payload, err = Marshal(msg)
	}
	if err != nil {
		ep.mu.Unlock()
		return err
	}
	addr, ok := ep.peers[to]
	if !ok {
		ep.counters.NoRoute++
		ep.mu.Unlock()
		return nil
	}
	ep.mu.Unlock()
	_, err = ep.conn.WriteToUDP(payload, addr)
	if err != nil && !errors.Is(err, net.ErrClosed) {
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

// Close shuts the socket and waits for the receive loop to exit.
func (ep *Endpoint) Close() error {
	select {
	case <-ep.closed:
		return nil
	default:
	}
	close(ep.closed)
	err := ep.conn.Close()
	ep.wg.Wait()
	return err
}

func (ep *Endpoint) receiveLoop() {
	defer ep.wg.Done()
	buf := make([]byte, 64*1024)
	for {
		n, src, err := ep.conn.ReadFromUDP(buf)
		if err != nil {
			select {
			case <-ep.closed:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		msg, addrs, err := UnmarshalAddressed(buf[:n])
		if err != nil {
			ep.mu.Lock()
			ep.decodeErrs++
			ep.mu.Unlock()
			continue
		}
		ep.mu.Lock()
		ep.counters.Delivered++
		if ep.advertise != "" {
			// Learn the sender's address from the datagram source (which is
			// authoritative: the peer demonstrably sends from there, so a
			// disagreeing stored entry is stale and gets refreshed) and the
			// payload ids' addresses from the trailer (second-hand gossip:
			// insert-only, so a stale trailer cannot clobber a fresh entry).
			ep.learn(msg.From, src, true)
			for i, a := range addrs {
				if a == "" || i >= len(msg.IDs) {
					continue
				}
				// Trailer strings come off the wire: only a literal ip:port
				// is taken, never a name to resolve — a lookup here would
				// stall every Send behind ep.mu on a peer's say-so.
				if ap, err := netip.ParseAddrPort(a); err == nil {
					ep.learn(msg.IDs[i], net.UDPAddrFromAddrPort(ap), false)
				}
			}
		}
		ep.mu.Unlock()
		ep.handler(msg)
	}
}

// learn inserts a directory entry if absent; when authoritative, it also
// refreshes an existing entry that disagrees with addr, so a node that
// rejoins on a new port becomes reachable again instead of being stuck
// behind its pre-departure address forever. Callers hold ep.mu.
func (ep *Endpoint) learn(id peer.ID, addr *net.UDPAddr, authoritative bool) {
	if id == ep.selfID || addr == nil {
		return
	}
	old, known := ep.peers[id]
	if !known {
		ep.peers[id] = addr
		ep.learned++
		return
	}
	if authoritative && (!old.IP.Equal(addr.IP) || old.Port != addr.Port || old.Zone != addr.Zone) {
		ep.peers[id] = addr
		ep.refreshed++
	}
}
