package analyzers

import (
	"sync/atomic"
	"testing"

	"sendforget/internal/analyzers/framework"
)

func TestSharedguardFixture(t *testing.T) {
	framework.RunFixture(t, fixture("sharedguard"), Sharedguard)
}

// The PR 3 churn race, replayed: a lock on the writer's side only.
func TestChurnplantFixture(t *testing.T) {
	framework.RunFixture(t, fixture("churnplant"), Sharedguard)
}

// The sharded engine's lock model in miniature: a gate-held write a pool job
// reads stays proven, and one write made without the gate is reported.
func TestGateplantFixture(t *testing.T) {
	framework.RunFixture(t, fixture("gateplant"), Sharedguard)
}

// The bug of testdata/src/shardplant in the shape the sharded engine had
// before its pool ran prebuilt jobs, compiled for real so the dynamic side
// of the comparison actually runs: a gate/work/done engine whose workers
// steal shard indexes from an atomic counter, with a cross-shard write
// planted on a spill branch that needs ~a million bumps of one slot to
// trigger. In this shape the write compiles; in the engine's job shape it
// does not.
const plantSpillAt = 1 << 20

type plantEngine struct {
	gate   chan struct{}
	work   chan int
	done   chan struct{}
	quit   chan struct{}
	steal  atomic.Int64
	shards int
	counts []int
}

func newPlantEngine(shards int) *plantEngine {
	p := &plantEngine{
		gate:   make(chan struct{}, 1),
		work:   make(chan int),
		done:   make(chan struct{}),
		quit:   make(chan struct{}),
		shards: shards,
	}
	p.counts = make([]int, shards)
	for i := 0; i < shards; i++ {
		go p.worker()
	}
	p.gate <- struct{}{}
	return p
}

func (p *plantEngine) worker() {
	for {
		select {
		case inc := <-p.work:
			for {
				k := int(p.steal.Add(1)) - 1
				if k >= p.shards {
					break
				}
				p.counts[k] += inc
				if p.counts[k] >= plantSpillAt {
					p.counts[0]++ // the planted cross-shard write
				}
			}
			p.done <- struct{}{}
		case <-p.quit:
			return
		}
	}
}

func (p *plantEngine) tick() {
	<-p.gate
	p.steal.Store(0)
	for i := 0; i < p.shards; i++ {
		p.work <- 1
	}
	for i := 0; i < p.shards; i++ {
		<-p.done
	}
	p.gate <- struct{}{}
}

func (p *plantEngine) close() {
	<-p.gate
	close(p.quit)
}

// TestRaceMissesTheShardplantSpill is the dynamic half of the shardplant
// regression, mirroring TestHotallocCatchesWhatDynamicCountingMisses: the
// planted cross-shard write sits on a spill branch no small-n schedule takes,
// so a race-enabled run of the steal-shaped engine certifies it clean. The
// static half is TestCompilerPlants/shardplant: written in the engine's job
// shape, the same write is a type error on every schedule of every size.
func TestRaceMissesTheShardplantSpill(t *testing.T) {
	const shards, ticks = 4, 8
	p := newPlantEngine(shards)
	for i := 0; i < ticks; i++ {
		p.tick()
	}
	p.close()

	// With the bug in place, every slot stays far below the spill
	// threshold, the branch never runs, and the race detector (when this
	// test runs under -race) has nothing to see.
	for k, c := range p.counts {
		if c != ticks {
			t.Fatalf("counts[%d] = %d, want %d; the spill branch was supposed to stay cold", k, c, ticks)
		}
	}
}
