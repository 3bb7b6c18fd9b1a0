package transport

// RefreshedPeers returns how many directory entries were rewritten because a
// datagram's source address disagreed with the stored one (a peer that
// rejoined on a new port).
func (ep *Endpoint) RefreshedPeers() int {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.refreshed
}
