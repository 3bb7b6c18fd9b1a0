// Package lockreach exercises the lockreach analyzer: no call that
// *transitively* blocks — through any chain of helpers or an interface
// dispatch — while a mutex is held. Direct operations under a lock are
// exercised by the lockdiscipline fixture beside this one.
package lockreach

import "sync"

type node struct {
	mu  sync.Mutex
	ch  chan string
	buf []string
}

// flush blocks directly: it sends on the node's channel.
func (n *node) flush() {
	for _, v := range n.buf {
		n.ch <- v
	}
	n.buf = nil
}

// record blocks directly; log blocks one level removed.
func (n *node) record(v string) { n.ch <- v }
func (n *node) log(v string)    { n.record(v) }

// grow never blocks.
func (n *node) grow() { n.buf = append(n.buf, "x") }

// The shape PR 2's rule exists to prevent, reintroduced by helper
// extraction: syntactically there is no channel op under the lock.
func (n *node) flushUnderLock() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.flush() // want `call to flush while holding n.mu: flush sends on a channel`
}

// Two helpers deep: the diagnostic names the next link of the chain.
func (n *node) logUnderLock() {
	n.mu.Lock()
	n.log("x") // want `call to log while holding n.mu: log calls record, which sends on a channel`
	n.mu.Unlock()
}

// sink dispatches through an interface; CHA resolves Put to chanSink.Put.
type sink interface{ Put(string) }

type chanSink struct{ ch chan string }

func (c chanSink) Put(v string) { c.ch <- v }

func (n *node) drainTo(s sink) {
	n.mu.Lock()
	defer n.mu.Unlock()
	s.Put("v") // want `call to Put while holding n.mu: Put sends on a channel`
}

// An early-release branch must not leak its unlock into the fall-through
// path: on the else path the mutex is still held.
func (n *node) branchRelease(cond bool) {
	n.mu.Lock()
	if cond {
		n.mu.Unlock()
		return
	}
	n.flush() // want `call to flush while holding n.mu`
	n.mu.Unlock()
}

// The sanctioned pattern: mutate under the lock, block after releasing it.
func (n *node) stageThenFlush(v string) {
	n.mu.Lock()
	n.buf = append(n.buf, v)
	n.mu.Unlock()
	n.flush()
}

// Non-blocking helpers remain legal under the lock.
func (n *node) growUnderLock() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.grow()
}

// The escape hatch, for reviewed exceptions.
func (n *node) allowedFlush() {
	n.mu.Lock()
	defer n.mu.Unlock()
	//lint:allow lockreach startup path, channel is buffered and provably empty
	n.flush()
}

// The lock is taken on one branch only. After the join it is held on some
// paths, not all — which is enough to deadlock, so the blocking check joins
// by union (may hold); an intersection would drop the lock here.
func (n *node) lockOnOneBranch(cond bool) {
	if cond {
		n.mu.Lock()
	}
	n.flush() // want `call to flush while holding n.mu`
	if cond {
		n.mu.Unlock()
	}
}
