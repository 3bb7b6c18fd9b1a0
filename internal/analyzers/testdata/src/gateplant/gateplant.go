// Package gateplant is the sharded engine's lock model in miniature, with
// one write planted outside it. The engine serializes its API on a
// capacity-1 gate channel, and a pool worker runs phase jobs between the
// gate holder's send on jobs and the worker's answer on done. activate
// writes node state with the gate held (AddNode, released under defer) or
// before the engine is shared (New); a job reads that state. Every one of
// the happens-before engine's five lock-model rules is needed to prove the
// activate/job pair ordered: the channel token (the gate is a lock), the
// dispatch barrier (the job runs under the gate its dispatcher holds), the
// entry lockset met over call sites (activate holds what its callers hold),
// the fresh-receiver skip in that meet (New's call does not count), and the
// release under defer held to function exit (AddNode). Reset writes the
// same state with no gate at all: the sharedguard analyzer must report it,
// and only it.
package gateplant

type node struct {
	view int
	rng  int
}

type shard struct {
	nodes []node
}

// initiate is the phase body: it reads what activate wrote.
func (sh *shard) initiate() int {
	sum := 0
	for i := range sh.nodes {
		sum += sh.nodes[i].view + sh.nodes[i].rng
	}
	return sum
}

type job struct {
	sh *shard
}

func (j *job) run() { j.sh.initiate() }

// pool holds only its channels: a worker names the job it received.
type pool struct {
	jobs chan *job
	done chan struct{}
	quit chan struct{}
}

// work is one pool goroutine, parked on jobs and answering on done.
func (p *pool) work() {
	for {
		select {
		case <-p.quit:
			return
		case j := <-p.jobs:
			j.run()
			p.done <- struct{}{}
		}
	}
}

type Engine struct {
	gate  chan struct{}
	pool  pool
	shard shard
	jobs  []job
}

// New activates every node before the gate holds its token, on an engine
// no other goroutine can name yet.
func New(n int) *Engine {
	e := &Engine{
		gate: make(chan struct{}, 1),
		pool: pool{
			jobs: make(chan *job, 1),
			done: make(chan struct{}, 1),
			quit: make(chan struct{}),
		},
		shard: shard{nodes: make([]node, n)},
	}
	e.jobs = []job{{sh: &e.shard}}
	for u := 0; u < n; u++ {
		e.activate(u)
	}
	go e.pool.work()
	e.gate <- struct{}{}
	return e
}

// activate installs node u's state. Callers hold the gate, or are New.
func (e *Engine) activate(u int) {
	nd := &e.shard.nodes[u]
	nd.view = u
	nd.rng = u + 1
}

// Tick dispatches the jobs to the pool with the gate held and waits for
// every answer.
func (e *Engine) Tick() {
	<-e.gate
	for i := range e.jobs {
		e.pool.jobs <- &e.jobs[i]
	}
	for range e.jobs {
		<-e.pool.done
	}
	e.gate <- struct{}{}
}

// AddNode reactivates node u under the gate, released under defer.
func (e *Engine) AddNode(u int) {
	<-e.gate
	defer func() { e.gate <- struct{}{} }()
	e.activate(u)
}

// Reset clears node u's view without taking the gate: a job may be reading
// it.
func (e *Engine) Reset(u int) {
	e.shard.nodes[u].view = 0 // want `unsynchronized write to view in \(Engine\)\.Reset: conflicts with the read in \(shard\)\.initiate at gateplant/gateplant\.go:\d+`
}

// Close shuts the pool down.
func (e *Engine) Close() { close(e.pool.quit) }
