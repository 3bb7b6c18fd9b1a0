// Package shardtype is shardplant written the way the sharded engine is
// written now: a shard is a type that owns its slot, the phase body is a
// method of *shard, and the worker spends the stolen index on the one shard
// it names. The same bug — the spill branch folding an overflowing slot into
// slot zero, which belongs to whichever worker stole index zero — has
// nothing to name slot zero with, so this package does not type-check, and
// TestShardtypeDoesNotCompile requires that it never does. shardplant keeps
// the bug at the steal site, where an index is still in hand and only
// shardconfine can tell whose it is.
package shardtype

import "sync/atomic"

const spillAt = 1 << 20

// shard owns one slot of the tally and holds no reference to the engine.
type shard struct{ count int }

type plant struct {
	gate    chan struct{}
	work    chan int
	done    chan struct{}
	quit    chan struct{}
	steal   atomic.Int64
	nshards int
	shards  []shard //vet:confined shard
}

// bump is the phase body.
func (sh *shard) bump(inc int) {
	sh.count += inc
	if sh.count >= spillAt {
		sh.shards[0].count++ // the planted cross-shard write
	}
}

// NewPlant builds the engine and starts its workers.
func NewPlant(nshards int) *plant {
	p := &plant{
		gate:    make(chan struct{}, 1),
		work:    make(chan int),
		done:    make(chan struct{}),
		quit:    make(chan struct{}),
		nshards: nshards,
		shards:  make([]shard, nshards),
	}
	for i := 0; i < nshards; i++ {
		go p.worker()
	}
	p.gate <- struct{}{}
	return p
}

// worker drains the steal counter each phase.
func (p *plant) worker() {
	for {
		select {
		case inc := <-p.work:
			for {
				k := int(p.steal.Add(1)) - 1
				if k >= p.nshards {
					break
				}
				p.shards[k].bump(inc)
			}
			p.done <- struct{}{}
		case <-p.quit:
			return
		}
	}
}

// Tick runs one phase under the gate.
func (p *plant) Tick() {
	<-p.gate
	p.steal.Store(0)
	for i := 0; i < p.nshards; i++ {
		p.work <- 1
	}
	for i := 0; i < p.nshards; i++ {
		<-p.done
	}
	p.gate <- struct{}{}
}

// Total reads the confined state under the gate token.
func (p *plant) Total() int {
	<-p.gate
	total := 0
	for k := range p.shards {
		total += p.shards[k].count
	}
	p.gate <- struct{}{}
	return total
}

// Close takes the gate for good and stops the workers.
func (p *plant) Close() {
	<-p.gate
	close(p.quit)
}
