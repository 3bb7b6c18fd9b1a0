// Package lockdiscipline exercises lockreach's direct rule: no transport
// sends, channel operations, or blocking calls written in a function while
// it holds a sync.Mutex or sync.RWMutex.
package lockdiscipline

import (
	"sync"
	"time"
)

type endpoint struct{}

// Send mimics the transport.Endpoint / runtime.Sender surface.
func (endpoint) Send(to int, payload string) {}

type node struct {
	mu  sync.Mutex
	out endpoint
	ch  chan string
	buf []string
}

func (n *node) sendUnderLock() {
	n.mu.Lock()
	n.out.Send(1, "hi") // want `call to n.out.Send while holding n.mu`
	n.mu.Unlock()
}

func (n *node) sendOnChanDeferred(v string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.ch <- v // want `channel send while holding n.mu`
}

func (n *node) recvUnderLock() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return <-n.ch // want `channel receive while holding n.mu`
}

func (n *node) sleepUnderLock() {
	n.mu.Lock()
	time.Sleep(time.Millisecond) // want `call to time.Sleep while holding n.mu`
	n.mu.Unlock()
}

func (n *node) waitUnderLock(wg *sync.WaitGroup) {
	n.mu.Lock()
	defer n.mu.Unlock()
	wg.Wait() // want `call to sync.WaitGroup.Wait while holding n.mu`
}

func (n *node) selectUnderLock() {
	n.mu.Lock()
	defer n.mu.Unlock()
	select { // want `blocking select while holding n.mu`
	case v := <-n.ch:
		n.buf = append(n.buf, v)
	}
}

// An early-release branch must not leak its unlock into the fall-through
// path: the send below still runs with the mutex held.
func (n *node) branchRelease(cond bool) {
	n.mu.Lock()
	if cond {
		n.mu.Unlock()
		return
	}
	n.out.Send(2, "x") // want `call to n.out.Send while holding n.mu`
	n.mu.Unlock()
}

// The sanctioned pattern PR 2 established: stage under the lock, transmit
// after releasing it.
func (n *node) stageThenSend(v string) {
	n.mu.Lock()
	n.buf = append(n.buf, v)
	staged := n.buf
	n.buf = nil
	n.mu.Unlock()
	for _, m := range staged {
		n.out.Send(0, m)
	}
}

// A spawned goroutine runs outside the spawner's critical section.
func (n *node) spawn() {
	n.mu.Lock()
	go func() {
		n.out.Send(3, "bg")
	}()
	n.mu.Unlock()
}

// A select with a default never blocks.
func (n *node) pollUnderLock() {
	n.mu.Lock()
	defer n.mu.Unlock()
	select {
	case v := <-n.ch:
		n.buf = append(n.buf, v)
	default:
	}
}

type cluster struct {
	mu    sync.RWMutex
	nodes map[int]*node
}

func (c *cluster) broadcastUnderRLock(msg string) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, n := range c.nodes {
		n.out.Send(0, msg) // want `call to n.out.Send while holding c.mu`
	}
}

// The escape hatch for a send the author has proven cannot block.
func (n *node) allowListed() {
	n.mu.Lock()
	defer n.mu.Unlock()
	//lint:allow lockreach buffered channel sized to the lock's critical sections
	n.ch <- "token"
}
