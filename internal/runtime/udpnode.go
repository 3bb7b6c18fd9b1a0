package runtime

import (
	"sync/atomic"

	"sendforget/internal/peer"
	"sendforget/internal/protocol"
	"sendforget/internal/transport"
)

// NewUDPNode brings up one networked node: it binds listen, switches the
// endpoint to addressed gossip (advertise defaults to the bound address),
// lets directory fill in the bootstrap peers, and builds the node on the
// socket. The endpoint dispatches into the node, but peers may already hold
// this node's id as a seed and gossip at it before construction finishes, so
// the handoff is atomic and early datagrams are dropped — S&F tolerates loss
// by design. The caller Starts the node, and Stops it and Closes the
// endpoint when done; on an error nothing is left open.
func NewUDPNode(cfg NodeConfig, seeds []peer.ID, listen, advertise string, directory func(*transport.Endpoint) error) (*Node, *transport.Endpoint, error) {
	var node atomic.Pointer[Node]
	ep, err := transport.NewEndpoint(listen, func(m protocol.Message) {
		if n := node.Load(); n != nil {
			n.HandleMessage(m)
		}
	})
	if err != nil {
		return nil, nil, err
	}
	n, err := func() (*Node, error) {
		if advertise == "" {
			advertise = ep.Addr().String()
		}
		if err := ep.EnableAddressLearning(cfg.ID, advertise); err != nil {
			return nil, err
		}
		if directory != nil {
			if err := directory(ep); err != nil {
				return nil, err
			}
		}
		return NewNode(cfg, seeds, ep)
	}()
	if err != nil {
		ep.Close()
		return nil, nil, err
	}
	node.Store(n)
	return n, ep, nil
}
