// Package shardplant is the regression companion to the sharded engine's
// worker pool: a reduced sharded tick with a cross-shard counter write hidden
// on a spill branch that no small-n schedule takes. The compiled mirror of
// the bug in the shape the engine used to have — workers stealing shard
// indexes from an atomic counter — passes `go test -race`, because the branch
// stays cold at test sizes. Here it is written in the shape the engine has
// now: a pool worker is handed one shard's job and its pool holds nothing
// but channels, so slot zero, which belongs to whichever goroutine ran shard
// zero's job, has no name there, and the package does not type-check at the
// planted line.
package shardplant

// spillAt is sized so the spill branch only runs after ~a million bumps of
// one slot: far beyond anything a race-enabled test reaches.
const spillAt = 1 << 20

// shard owns one slot of the tally.
type shard struct{ count int }

// job is one shard's work in a phase.
type job struct {
	sh  *shard
	inc int
}

// pool holds only channels.
type pool struct {
	jobs chan *job
	done chan struct{}
	quit chan struct{}
}

// work runs jobs as they come. The spill branch folds an overflowing slot
// into slot zero.
func (p *pool) work() {
	for {
		select {
		case <-p.quit:
			return
		case j := <-p.jobs:
			j.sh.count += j.inc
			if j.sh.count >= spillAt {
				p.shards[0].count++ // the planted cross-shard write
			}
			p.done <- struct{}{}
		}
	}
}

type plant struct {
	gate   chan struct{}
	pool   pool
	shards []shard
	jobs   []job
}

// NewPlant builds the engine, one job per shard, and starts its workers.
func NewPlant(nshards int) *plant {
	p := &plant{
		gate: make(chan struct{}, 1),
		pool: pool{
			jobs: make(chan *job, nshards),
			done: make(chan struct{}, nshards),
			quit: make(chan struct{}),
		},
		shards: make([]shard, nshards),
		jobs:   make([]job, nshards),
	}
	for k := range p.jobs {
		p.jobs[k] = job{sh: &p.shards[k], inc: 1}
		go p.pool.work()
	}
	p.gate <- struct{}{}
	return p
}

// Tick runs one phase under the gate.
func (p *plant) Tick() {
	<-p.gate
	for k := range p.jobs {
		p.pool.jobs <- &p.jobs[k]
	}
	for range p.jobs {
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
