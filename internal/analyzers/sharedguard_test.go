package analyzers

import (
	"os"
	"path/filepath"
	"strings"
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

func TestShardconfineFixture(t *testing.T) {
	framework.RunFixture(t, fixture("shardconfine"), Shardconfine)
}

func TestShardplantFixture(t *testing.T) {
	framework.RunFixture(t, fixture("shardplant"), Shardconfine)
}

// TestShardmailFixture holds the mail exchange's ownership rule: a worker
// reaches the buckets only through indexes derived from the shard it stole —
// its row of the set being filled, its column of the set being consumed — and
// the planted reset of a bucket in someone else's column is reported.
func TestShardmailFixture(t *testing.T) {
	framework.RunFixture(t, fixture("shardmail"), Shardconfine)
}

// TestShardtypeDoesNotCompile holds the invariant the compiler took over
// from shardconfine when the sharded engine's phase bodies became methods of
// a shard type: the shardplant bug written in that shape — a *shard method
// bumping another shard's counter on the spill branch — has no name for the
// other shard, and must keep failing to type-check, at the planted line and
// nowhere else.
func TestShardtypeDoesNotCompile(t *testing.T) {
	src, err := os.ReadFile(filepath.Join(fixture("shardtype"), "shardtype.go"))
	if err != nil {
		t.Fatal(err)
	}
	before, _, planted := strings.Cut(string(src), "// the planted cross-shard write")
	if !planted {
		t.Fatal("the fixture lost its planted line")
	}
	want := strings.Count(before, "\n") + 1

	loader, err := framework.NewLoader("")
	if err != nil {
		t.Fatal(err)
	}
	_, err = loader.LoadDir(fixture("shardtype"))
	if lines := typeErrorLines(err); len(lines) != 1 || lines[0] != want {
		t.Fatalf("want one type error, at the planted line %d; loading gave: %v", want, err)
	}
	if !strings.Contains(err.Error(), "sh.shards undefined (type *shard has no field or method shards)") {
		t.Errorf("the type error is not the missing way to a sibling shard: %v", err)
	}
}

// The mirror of testdata/src/shardplant, compiled for real so the dynamic
// side of the comparison actually runs: a gate/work/done engine whose
// workers steal shard indexes from an atomic counter, with a cross-shard
// write planted on a spill branch that needs ~a million bumps of one slot
// to trigger.
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

// TestShardconfineCatchesWhatRaceMisses is the regression test the
// shardconfine analyzer exists for, mirroring the hotalloc-vs-AllocsPerRun
// test from PR 9: the planted cross-shard write sits on a spill branch no
// small-n schedule takes, so a race-enabled run of the real engine
// certifies it clean, while the static analyzer reports the write with its
// barrier-phase context on every schedule of every size.
func TestShardconfineCatchesWhatRaceMisses(t *testing.T) {
	const shards, ticks = 4, 8
	p := newPlantEngine(shards)
	for i := 0; i < ticks; i++ {
		p.tick()
	}
	p.close()

	// Dynamic side: with the bug in place, every slot stays far below the
	// spill threshold, the branch never runs, and the race detector (when
	// this test runs under -race) has nothing to see.
	for k, c := range p.counts {
		if c != ticks {
			t.Fatalf("counts[%d] = %d, want %d; the spill branch was supposed to stay cold", k, c, ticks)
		}
	}

	// Static side: shardconfine reports the planted write regardless of
	// which branches any particular schedule takes.
	diags, err := framework.FixtureDiagnostics(fixture("shardplant"), Shardconfine)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Fatalf("want exactly the planted write, got %d diagnostics: %v", len(diags), diags)
	}
	d := diags[0]
	if d.Analyzer != "shardconfine" {
		t.Errorf("diagnostic from %q, want shardconfine", d.Analyzer)
	}
	for _, part := range []string{
		"write to shard-confined field counts",
		"inside a barrier phase but not provably at the owning worker's shard index",
	} {
		if !strings.Contains(d.Message, part) {
			t.Errorf("diagnostic %q missing %q", d.Message, part)
		}
	}
}
