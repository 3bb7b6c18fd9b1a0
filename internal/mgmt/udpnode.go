package mgmt

import (
	"fmt"
	"math"

	"sendforget/internal/metrics"
	"sendforget/internal/peer"
	"sendforget/internal/runtime"
	"sendforget/internal/transport"
)

// UDPNodeOptions parameterizes a UDPNode backend over one real node.
type UDPNodeOptions struct {
	// Node is the running gossip node; Endpoint its UDP transport.
	Node     *runtime.Node
	Endpoint *transport.Endpoint
	// Protocol, S, DL, Seed describe the running config.
	Protocol string
	S, DL    int
	Seed     int64
}

// UDPNode adapts a single real node to the management Backend. Node and
// Endpoint are internally synchronized, so the adapter needs no lock of its
// own.
type UDPNode struct {
	opts UDPNodeOptions
}

var _ Backend = (*UDPNode)(nil)

// NewUDPNode builds the backend.
func NewUDPNode(opts UDPNodeOptions) (*UDPNode, error) {
	if opts.Node == nil || opts.Endpoint == nil {
		return nil, fmt.Errorf("mgmt: nil node or endpoint")
	}
	return &UDPNode{opts: opts}, nil
}

// Status reads the node's ledger and the endpoint's once each. Traffic maps
// the endpoint counters into the substrate-neutral shape; a real network
// reports no Losses: a datagram the network dropped is simply one this node
// never hears about, so from one endpoint's vantage the ledger covers sends,
// local deliveries, and unroutable destinations. There is no fault layer and
// no sender-side delay queue, and the node's initiated-action count is its
// logical clock.
func (u *UDPNode) Status() Status {
	c, e := u.opts.Node.Counters(), u.opts.Endpoint.Counters()
	return Status{
		Config: Config{
			Info: Info{Mode: "udp", Protocol: u.opts.Protocol, N: 1},
			S:    u.opts.S, DL: u.opts.DL, Seed: u.opts.Seed,
			Period: u.opts.Node.Period().String(),
		},
		Rounds:   int64(c.Ticks),
		Counters: c,
		Traffic:  metrics.Traffic{Sends: e.Sent, Deliveries: e.Delivered, DeadLetters: e.NoRoute},
	}
}

// Views returns the node's single view.
func (u *UDPNode) Views(only *int) ([]NodeView, int) {
	id := int(u.opts.Node.ID())
	if only != nil && *only != id {
		return nil, 1
	}
	return []NodeView{nodeView(id, u.opts.Node.ViewSnapshot())}, 1
}

// Join adds a peer to the transport directory — the bootstrap introduction;
// address learning spreads the rest.
func (u *UDPNode) Join(req JoinRequest) error {
	if req.ID == nil || req.Addr == "" {
		return fmt.Errorf("mgmt: udp join needs an id and an addr (id=host:port directory entry)")
	}
	// Before the conversion: 1<<32 + 5 would land in peer 5's entry.
	if *req.ID < math.MinInt32 || *req.ID > math.MaxInt32 {
		return fmt.Errorf("mgmt: peer id %d does not fit a 32-bit node id", *req.ID)
	}
	if *req.ID == int(u.opts.Node.ID()) {
		return fmt.Errorf("mgmt: node %d cannot add itself as a peer", *req.ID)
	}
	return u.opts.Endpoint.AddPeer(peer.ID(*req.ID), req.Addr)
}

// Leave rejects member removal: a UDP node has no authority over its peers
// — a leaver just stops participating. Draining this node is POST /leave
// with no id.
func (u *UDPNode) Leave(id int) error {
	return fmt.Errorf("mgmt: a udp node cannot remove peer %d: leavers just stop participating (drain this node with a bare /leave)", id)
}

// Drain checks the node's view invariant; there is no local delay queue to
// empty.
func (u *UDPNode) Drain() error {
	return u.opts.Node.CheckInvariants()
}

// Reconfigure retunes the gossip period live. Loss is rejected: the real
// network's loss rate is measured, not configured.
func (u *UDPNode) Reconfigure(upd ConfigUpdate) error {
	if upd.Loss != nil {
		return fmt.Errorf("mgmt: loss model applies to -local mode only (a real network's loss is not configurable)")
	}
	if upd.Period == nil {
		return nil
	}
	d, err := parsePeriod(*upd.Period)
	if err != nil {
		return err
	}
	return u.opts.Node.SetPeriod(d)
}
