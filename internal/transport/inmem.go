package transport

import (
	"fmt"
	"sync"

	"sendforget/internal/driver"
	"sendforget/internal/faults"
	"sendforget/internal/loss"
	"sendforget/internal/metrics"
	"sendforget/internal/peer"
	"sendforget/internal/protocol"
	"sendforget/internal/rng"
)

// Handler consumes a delivered message at a node. Handlers run on the
// sender's goroutine (or the drain goroutine for delayed messages) and must
// not block.
type Handler func(msg protocol.Message)

// Network is an in-memory datagram network for the concurrent runtime:
// every Send consults the fault-injection conditions (loss, partitions,
// delay), then the receiver's handler runs synchronously — or, for delayed
// messages, when Advance drains the delay calendar. The fault decision, delay
// calendar, and accounting are the shared internal/driver router, serialized
// under the network lock. Safe for concurrent use.
type Network struct {
	mu     sync.Mutex
	cond   *faults.Conditions
	router *driver.Router
	// handlers is a dense slice indexed by node id: simulator ids are small
	// dense integers (see package peer), so routing is an index instead of
	// a map probe on every Send. The slice grows on Register; unregistered
	// or out-of-range ids are unroutable (nil entry).
	handlers []Handler
}

// NewNetwork builds a network dropping messages per the given loss model —
// the paper's uniform-loss shape, layered as the base model of a fresh
// condition stack.
func NewNetwork(lm loss.Model, r *rng.RNG) (*Network, error) {
	if lm == nil {
		return nil, fmt.Errorf("transport: nil loss model")
	}
	cond, err := faults.New(lm)
	if err != nil {
		return nil, err
	}
	return NewNetworkWithConditions(cond, r)
}

// NewNetworkWithConditions builds a network over an externally owned
// condition stack, for burst-loss, partition, and delay scenarios. The
// conditions instance must not be shared with another substrate's run
// (stateful models would interleave their state).
func NewNetworkWithConditions(cond *faults.Conditions, r *rng.RNG) (*Network, error) {
	if cond == nil || r == nil {
		return nil, fmt.Errorf("transport: nil dependency")
	}
	nw := &Network{cond: cond}
	// A destination is routable while it has a handler; the router calls
	// this under nw.mu.
	nw.router = driver.NewRouter(cond, r, func(id peer.ID) bool {
		return nw.handlerFor(id) != nil
	})
	return nw, nil
}

// Conditions returns the network's fault-injection stack, for dynamic
// reconfiguration (partition, heal, link overrides) mid-run.
func (nw *Network) Conditions() *faults.Conditions { return nw.cond }

// Register attaches a node's receive handler. Re-registering replaces the
// previous handler; a nil handler detaches the node (messages to it are
// then dropped as unroutable, modeling a failed node). Negative ids are
// rejected silently: they can never be routed to (peer.Nil is the empty
// view entry, not an address).
func (nw *Network) Register(id peer.ID, h Handler) {
	if id < 0 {
		return
	}
	nw.mu.Lock()
	defer nw.mu.Unlock()
	// The conflicting handlerFor read reached from the routable callback is
	// also under nw.mu: the router invokes it only from Route/Deliverable,
	// whose callers hold the lock (see NewNetworkWithConditions) — a
	// cross-package contract the happens-before engine cannot see.
	for int(id) >= len(nw.handlers) {
		//lint:allow sharedguard router calls the routable callback under nw.mu (NewRouter contract)
		nw.handlers = append(nw.handlers, nil)
	}
	//lint:allow sharedguard router calls the routable callback under nw.mu (NewRouter contract)
	nw.handlers[id] = h
}

// handlerFor looks up the handler for id. Callers hold nw.mu.
func (nw *Network) handlerFor(id peer.ID) Handler {
	if id < 0 || int(id) >= len(nw.handlers) {
		return nil
	}
	return nw.handlers[id]
}

// Send transmits msg to the node registered as to. The fault decision and
// handler lookup are serialized; the handler itself runs outside the
// network lock (it takes the receiving node's own lock). Messages assigned
// a delivery delay enter the delay queue and surface on a later Advance.
// The error is always nil; the signature matches the UDP endpoint so the
// runtime can treat both uniformly.
func (nw *Network) Send(to peer.ID, msg protocol.Message) error {
	nw.mu.Lock()
	if nw.router.Route(to, msg) != driver.Delivered {
		nw.mu.Unlock()
		return nil
	}
	h := nw.handlerFor(to)
	nw.mu.Unlock()
	h(msg)
	return nil
}

// Advance moves the network clock one tick and delivers every delayed
// message that came due, in (due, enqueue) order. The cluster calls it at
// each round boundary (manual ticking) or from a drain timer (Start mode);
// routing is resolved at drain time, so a message to a node that departed
// while in flight counts as a dead letter. Handlers run outside the lock,
// on ids copied out of the router's calendar under it: a drained message
// aliases calendar storage only until the next Tick, and once the lock is
// released another goroutine's Advance may tick.
func (nw *Network) Advance() {
	type delivery struct {
		h   Handler
		msg protocol.Message
		off int // msg's ids are ids[off : off+len(msg.IDs)]
	}
	var deliveries []delivery
	var ids []peer.ID
	nw.mu.Lock()
	nw.router.Tick()
	for {
		d, ok := nw.router.Due()
		if !ok {
			break
		}
		if !nw.router.Deliverable(d.To) {
			continue
		}
		deliveries = append(deliveries, delivery{h: nw.handlerFor(d.To), msg: d.Msg, off: len(ids)})
		ids = append(ids, d.Msg.IDs...)
	}
	nw.mu.Unlock()
	for _, d := range deliveries {
		end := d.off + len(d.msg.IDs)
		d.msg.IDs = ids[d.off:end:end]
		d.h(d.msg)
	}
}

// Pending returns the number of messages waiting in the delay queue.
func (nw *Network) Pending() int {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	return nw.router.Pending()
}

// Traffic returns a snapshot of the router's ledger.
func (nw *Network) Traffic() metrics.Traffic {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	return nw.router.Traffic()
}
