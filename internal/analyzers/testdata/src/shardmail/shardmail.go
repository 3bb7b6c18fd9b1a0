// Package shardmail is the sharded engine's mail exchange in the reduced shape
// of shardplant: S shards and two mail sets of S×S buckets, bucket (k → d)
// filled by shard k's phase and consumed by shard d's next one. A phase
// consumes one set and fills the other, so a worker that stole shard k may
// read column k of the set being consumed and write row k of the other — the
// stolen index names both, as it does at the engine's steal site, where the
// rows and columns are indexed once and handed to the phase body. The planted
// bug is a worker emptying a bucket of a column that is not its own: on a
// spill branch no small test takes, it resets shard 0's row of the set being
// consumed, so that every other shard finds the mail addressed to it gone.
// The compiled mirror of such an engine passes `go test -race` at test sizes;
// the index is not derived from the stolen one, and shardconfine reports it
// on every schedule.
package shardmail

import "sync/atomic"

// spillAt is sized so the spill branch only runs after ~a million messages.
const spillAt = 1 << 20

type plant struct {
	gate    chan struct{}
	work    chan int
	done    chan struct{}
	quit    chan struct{}
	steal   atomic.Int64
	nshards int
	set     int     // the mail set the next phase consumes
	seen    []int   //vet:confined shard
	mail    [][]int //vet:confined shard
}

// NewPlant builds the engine — bucket (k → d) of mail set p at
// (2*k+p)*nshards+d — and starts its workers.
func NewPlant(nshards int) *plant {
	p := &plant{
		gate:    make(chan struct{}, 1),
		work:    make(chan int),
		done:    make(chan struct{}),
		quit:    make(chan struct{}),
		nshards: nshards,
		seen:    make([]int, nshards),
		mail:    make([][]int, 2*nshards*nshards),
	}
	for k := 0; k < nshards; k++ {
		p.mail[2*k*nshards+k] = []int{k}
	}
	for i := 0; i < nshards; i++ {
		go p.worker()
	}
	p.gate <- struct{}{}
	return p
}

// worker drains the steal counter each phase: for every shard it steals it
// empties the shard's row of the set being filled, then walks the shard's
// column of the set being consumed, in source-shard order, filing what
// follows from each message.
func (p *plant) worker() {
	for {
		select {
		case set := <-p.work:
			for {
				k := int(p.steal.Add(1)) - 1
				if k >= p.nshards {
					break
				}
				out := (2*k + 1 - set) * p.nshards
				for d := 0; d < p.nshards; d++ {
					p.mail[out+d] = p.mail[out+d][:0]
				}
				for src := 0; src < p.nshards; src++ {
					for _, m := range p.mail[(2*src+set)*p.nshards+k] {
						p.seen[k]++
						p.mail[out+m%p.nshards] = append(p.mail[out+m%p.nshards], m+1)
					}
				}
				if p.seen[k] >= spillAt {
					p.mail[set*p.nshards] = nil // want `write to shard-confined field mail in \(plant\)\.worker inside a barrier phase but not provably at the owning worker's shard index`
				}
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
		p.work <- p.set
	}
	for i := 0; i < p.nshards; i++ {
		<-p.done
	}
	p.set = 1 - p.set
	p.gate <- struct{}{}
}

// Seen reads the confined state under the gate token.
func (p *plant) Seen() int {
	<-p.gate
	total := 0
	for _, v := range p.seen {
		total += v
	}
	p.gate <- struct{}{}
	return total
}

// Close takes the gate for good and stops the workers.
func (p *plant) Close() {
	<-p.gate
	close(p.quit)
}
