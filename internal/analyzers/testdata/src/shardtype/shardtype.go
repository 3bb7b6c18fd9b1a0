// Package shardtype is shardplant's bug one level further in: the sharded
// engine's phase bodies are methods of *shard, a type that owns its slot and
// holds no reference to the engine, and a pool worker runs the job of the one
// shard it was handed. The same bug — the spill branch folding an overflowing
// slot into slot zero, which belongs to whichever goroutine ran shard zero's
// job — written in the phase body has nothing to name slot zero with, so this
// package does not type-check, and TestCompilerPlants requires that it never
// does. shardplant plants the write in the worker, as nameless there.
package shardtype

const spillAt = 1 << 20

// shard owns one slot of the tally and holds no reference to the engine.
type shard struct{ count int }

// pool holds only channels: a worker names the shard it was handed.
type pool struct {
	jobs chan *shard
	done chan struct{}
	quit chan struct{}
}

type plant struct {
	gate   chan struct{}
	pool   pool
	shards []shard
}

// bump is the phase body.
func (sh *shard) bump(inc int) {
	sh.count += inc
	if sh.count >= spillAt {
		sh.shards[0].count++ // the planted cross-shard write
	}
}

// work runs the phase body of every shard it is handed.
func (p *pool) work() {
	for {
		select {
		case <-p.quit:
			return
		case sh := <-p.jobs:
			sh.bump(1)
			p.done <- struct{}{}
		}
	}
}

// NewPlant builds the engine and starts its workers.
func NewPlant(nshards int) *plant {
	p := &plant{
		gate: make(chan struct{}, 1),
		pool: pool{
			jobs: make(chan *shard, nshards),
			done: make(chan struct{}, nshards),
			quit: make(chan struct{}),
		},
		shards: make([]shard, nshards),
	}
	for i := 0; i < nshards; i++ {
		go p.pool.work()
	}
	p.gate <- struct{}{}
	return p
}

// Tick runs one phase under the gate.
func (p *plant) Tick() {
	<-p.gate
	for k := range p.shards {
		p.pool.jobs <- &p.shards[k]
	}
	for range p.shards {
		<-p.pool.done
	}
	p.gate <- struct{}{}
}

// Total reads the tally under the gate token.
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
	close(p.pool.quit)
}
