// Package churnplant replays the PR 3 churn race: the goroutine-per-node
// cluster's ticker walked the node slice without the cluster mutex while
// RemoveNode rewrote it under that mutex. The `-race` test of the day never
// removed a node mid-round, so it passed; the fix was an RWMutex on both
// sides plus snapshot iteration. The sharedguard analyzer must report the
// pair: a lock held on one side only excludes nothing.
package churnplant

import "sync"

type node struct {
	mu     sync.Mutex
	rounds int
}

func (nd *node) tick() {
	nd.mu.Lock()
	nd.rounds++
	nd.mu.Unlock()
}

type cluster struct {
	mu    sync.Mutex
	nodes []*node
	stop  chan struct{}
	wg    sync.WaitGroup
}

// Start launches the ticker.
func Start(c *cluster) {
	c.wg.Add(1)
	go c.run()
}

// run is the ticking goroutine: one gossip round per turn of the loop,
// reading c.nodes with no lock held.
func (c *cluster) run() {
	defer c.wg.Done()
	for {
		select {
		case <-c.stop:
			return
		default:
		}
		for _, nd := range c.nodes {
			if nd != nil {
				nd.tick()
			}
		}
	}
}

// RemoveNode is the churn path: it takes mu, which the ticker never does.
func (c *cluster) RemoveNode(u int) {
	c.mu.Lock()
	c.nodes[u] = nil // want `unsynchronized write to nodes in \(cluster\)\.RemoveNode: conflicts with the read in \(cluster\)\.run at churnplant/churnplant\.go:\d+`
	c.mu.Unlock()
}

// Stop ends the ticker and waits for it.
func (c *cluster) Stop() {
	close(c.stop)
	c.wg.Wait()
}
