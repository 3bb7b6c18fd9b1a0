// Package shardmail is the sharded engine's mail exchange in the reduced shape
// of shardplant: S shards and two mail sets of S rows, row k a sorting outbox
// whose lane d is bucket (k → d), filled by shard k's phase and consumed by
// shard d's next one. A phase consumes one set and fills the other, so shard
// k's job holds column k of the set being consumed — its lanes of every row,
// read-only by type (protocol.Lane) — and row k of the other. The planted bug
// is a worker emptying mail that is not its own: on a spill branch no small
// test takes, it resets shard 0's row of the set being consumed, so that every
// other shard finds the mail addressed to it gone. The compiled mirror of such
// an engine passes `go test -race` at test sizes; here the only handle a
// worker has on the set being consumed is its column, a column cannot be
// reset, and the package does not type-check at the planted line.
package shardmail

import (
	"sendforget/internal/peer"
	"sendforget/internal/protocol"
)

// spillAt is sized so the spill branch only runs after ~a million messages.
const spillAt = 1 << 20

// shardShift maps a node id to its shard: four nodes a shard.
const shardShift = 2

type shard struct{ seen int }

// job is one shard's work in a phase: its column of the set being consumed
// and its row of the other.
type job struct {
	sh  *shard
	in  []protocol.Lane
	out *protocol.Outbox
}

// pool holds only channels.
type pool struct {
	jobs chan *job
	done chan struct{}
	quit chan struct{}
}

// work runs jobs as they come: empty the job's row, then walk its column in
// source-shard order, answering each message into the row.
func (p *pool) work() {
	for {
		select {
		case <-p.quit:
			return
		case j := <-p.jobs:
			j.out.Reset()
			for _, lane := range j.in {
				for runs := lane.Runs(); ; {
					run := runs.Next()
					if run == nil {
						break
					}
					for i := range run {
						j.sh.seen++
						j.out.Append1(run[i].From, run[i].To, protocol.KindGossip, false, run[i].To)
					}
				}
			}
			if j.sh.seen >= spillAt {
				j.in[0].Reset() // the planted reset of another shard's row
			}
			p.done <- struct{}{}
		}
	}
}

type plant struct {
	gate   chan struct{}
	pool   pool
	shards []shard
	jobs   [2][]job // jobs[set]: every shard's job of a phase consuming set
	set    int      // the mail set the next phase consumes
}

// NewPlant builds the engine — shard k's row of mail set p at rows[2*k+p] —
// and starts its workers.
func NewPlant(nshards int) *plant {
	p := &plant{
		gate: make(chan struct{}, 1),
		pool: pool{
			jobs: make(chan *job, nshards),
			done: make(chan struct{}, nshards),
			quit: make(chan struct{}),
		},
		shards: make([]shard, nshards),
	}
	rows := make([]protocol.Outbox, 2*nshards)
	for i := range rows {
		rows[i] = protocol.Sorted(nshards, shardShift)
	}
	for set := range p.jobs {
		p.jobs[set] = make([]job, nshards)
		for k := range p.jobs[set] {
			col := make([]protocol.Lane, nshards)
			for src := range col {
				col[src] = rows[2*src+set].Lane(k)
			}
			p.jobs[set][k] = job{sh: &p.shards[k], in: col, out: &rows[2*k+1-set]}
		}
	}
	for k := 0; k < nshards; k++ {
		rows[2*k].Append1(peer.ID(k<<shardShift), peer.ID(k<<shardShift), protocol.KindGossip, false, 0)
		go p.pool.work()
	}
	p.gate <- struct{}{}
	return p
}

// Tick runs one phase under the gate.
func (p *plant) Tick() {
	<-p.gate
	jobs := p.jobs[p.set]
	for k := range jobs {
		p.pool.jobs <- &jobs[k]
	}
	for range jobs {
		<-p.pool.done
	}
	p.set = 1 - p.set
	p.gate <- struct{}{}
}

// Seen reads the tally under the gate token.
func (p *plant) Seen() int {
	<-p.gate
	total := 0
	for k := range p.shards {
		total += p.shards[k].seen
	}
	p.gate <- struct{}{}
	return total
}

// Close takes the gate for good and stops the workers.
func (p *plant) Close() {
	<-p.gate
	close(p.pool.quit)
}
