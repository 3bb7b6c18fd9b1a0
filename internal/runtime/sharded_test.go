package runtime_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	gort "runtime"
	"sync"
	"testing"

	"sendforget/internal/faults"
	"sendforget/internal/loss"
	"sendforget/internal/metrics"
	"sendforget/internal/peer"
	"sendforget/internal/protocol"
	"sendforget/internal/protocol/flipper"
	"sendforget/internal/protocol/pushpull"
	"sendforget/internal/protocol/sendforget"
	"sendforget/internal/protocol/sfopt"
	"sendforget/internal/protocol/shuffle"
	"sendforget/internal/runtime"
)

// allProtocols lists the five protocols, the full
// set the sharded engine runs allocation-free. The factories mirror
// cmd/sfsim's defaults at view size 16.
func allProtocols() []struct {
	name    string
	factory protocol.CoreFactory
} {
	return []struct {
		name    string
		factory protocol.CoreFactory
	}{
		{"sf", func() (protocol.StepCore, error) { return sendforget.NewCore(16, 6) }},
		{"sfopt", func() (protocol.StepCore, error) {
			return sfopt.NewCore(sfopt.Options{S: 16, DL: 6, ReplaceWhenFull: true, Undelete: true})
		}},
		{"shuffle", func() (protocol.StepCore, error) { return shuffle.NewCore(16) }},
		{"flipper", func() (protocol.StepCore, error) { return flipper.NewCore(16) }},
		{"pushpull", func() (protocol.StepCore, error) { return pushpull.NewCore(16) }},
	}
}

func TestShardedValidation(t *testing.T) {
	if _, err := newSharded(runtime.Config{N: 1, NewCore: sfFactory(8, 2)}); err == nil {
		t.Error("accepted n=1")
	}
	if _, err := newSharded(runtime.Config{N: 10}); err == nil {
		t.Error("accepted nil core factory")
	}
	if _, err := newSharded(runtime.Config{N: 10, NewCore: sfFactory(8, 2), InitDegree: 10}); err == nil {
		t.Error("accepted init degree >= n")
	}
	for _, size := range []int{-8, 3, 12, 100} {
		if _, err := newSharded(runtime.Config{N: 60, NewCore: sfFactory(8, 2), ShardSize: size}); err == nil {
			t.Errorf("accepted shard size %d, not a power of two", size)
		}
	}
	// A mail set is shards² buckets, so the shard count is capped: 1000 nodes
	// in shards of 16 are 63 shards, one node more is 65.
	if _, err := newSharded(runtime.Config{N: 1000, NewCore: sfFactory(8, 2), ShardSize: 16}); err != nil {
		t.Errorf("63 shards rejected: %v", err)
	}
	if _, err := newSharded(runtime.Config{N: 1025, NewCore: sfFactory(8, 2), ShardSize: 16}); err == nil {
		t.Error("accepted a shard size that makes 65 shards")
	}
}

// TestShardedDefaultGeometry pins the automatic shard size: a function of n
// alone, 256 nodes until that would make more than 64 shards, then the next
// power of two that does not.
func TestShardedDefaultGeometry(t *testing.T) {
	for _, tc := range []struct{ n, size, shards int }{
		{2, 256, 1}, {2000, 256, 8}, {10_000, 256, 40}, {16_384, 256, 64}, {16_385, 512, 33},
		{50_000, 1024, 49}, {100_000, 2048, 49}, {1_000_000, 16_384, 62},
	} {
		size := runtime.DefaultShardSize(tc.n)
		if shards := (tc.n + size - 1) / size; size != tc.size || shards != tc.shards {
			t.Errorf("n=%d: shard size %d (%d shards), want %d (%d)", tc.n, size, shards, tc.size, tc.shards)
		}
	}
}

func TestShardedTickRounds(t *testing.T) {
	e, err := newSharded(runtime.Config{N: 60, NewCore: sfFactory(12, 4), Loss: 0.05, Seed: 7, ShardSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for round := 0; round < 80; round++ {
		e.TickRound()
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	cnt := e.Counters()
	if cnt.Ticks != 60*80 {
		t.Errorf("ticks = %d, want %d", cnt.Ticks, 60*80)
	}
	if cnt.Sends == 0 || cnt.Receives == 0 {
		t.Errorf("no gossip flowed: %+v", cnt)
	}
	tr := e.Traffic()
	if !tr.Conserved() {
		t.Errorf("traffic identity violated: %+v", tr)
	}
	if tr.Losses == 0 {
		t.Error("5% loss produced no losses")
	}
	if cnt.Sends != tr.Sends {
		t.Errorf("node sends %d != transport sends %d", cnt.Sends, tr.Sends)
	}
	if cnt.Receives != tr.Deliveries {
		t.Errorf("node receives %d != transport deliveries %d", cnt.Receives, tr.Deliveries)
	}
	g := e.Snapshot()
	if comps := g.ComponentCount(); comps > 1 {
		t.Errorf("overlay split into %d components under mild loss", comps)
	}
}

// shardedFingerprint condenses an engine's full observable state — every
// view byte, the summed counters, and the traffic ledger — into one string
// for exact cross-run comparison.
func shardedFingerprint(e runtime.Substrate) string {
	views := e.Views()
	buf := make([]byte, 0, 1<<16)
	for u, v := range views {
		if v == nil {
			buf = append(buf, fmt.Sprintf("%d:-\n", u)...)
			continue
		}
		buf = append(buf, fmt.Sprintf("%d:", u)...)
		for i := 0; i < v.Size(); i++ {
			buf = append(buf, fmt.Sprintf("%d,", v.Slot(i))...)
		}
		buf = append(buf, '\n')
	}
	return string(buf) + fmt.Sprintf("%+v\n%+v", e.Counters(), e.Traffic())
}

// TestShardedDeterministicAcrossWorkers is the engine's core guarantee: the
// worker count changes wall-clock time only, never results. Every view
// byte, counter, and traffic number must match across worker counts — for
// all five protocols, with and without a delay queue in play.
func TestShardedDeterministicAcrossWorkers(t *testing.T) {
	gmp := gort.GOMAXPROCS(0)
	cases := []struct {
		name  string
		delay faults.Delay
	}{
		{name: "immediate"},
		{name: "delayed", delay: faults.Delay{Fixed: 1, Jitter: 3}},
	}
	for _, p := range allProtocols() {
		for _, tc := range cases {
			t.Run(p.name+"/"+tc.name, func(t *testing.T) {
				var want string
				for _, workers := range []int{1, 4, gmp} {
					cond := faults.Lossless()
					if tc.delay.Fixed > 0 || tc.delay.Jitter > 0 {
						if err := cond.SetDelay(tc.delay); err != nil {
							t.Fatal(err)
						}
					} else {
						cond = nil
					}
					e, err := newSharded(runtime.Config{
						N: 200, NewCore: p.factory, Loss: 0.05,
						Conditions: cond, Seed: 17, ShardSize: 16, Workers: workers,
					})
					if err != nil {
						t.Fatal(err)
					}
					for round := 0; round < 60; round++ {
						e.TickRound()
					}
					e.DrainDelayed()
					got := shardedFingerprint(e)
					if tc.name == "delayed" {
						// Fixed 1 parks every surviving send, replies to
						// drained requests included: a shuffle or flipper
						// exchange parks twice, and its reply is routed from
						// inside the drain.
						tr, replies := e.Traffic(), e.Counters().Replies
						if tr.Delayed != tr.Sends-tr.Losses || e.Pending() != 0 || !tr.Conserved() {
							t.Errorf("workers=%d: ledger %+v, pending %d: want every surviving send parked and all of them drained", workers, tr, e.Pending())
						}
						if replying := p.name == "shuffle" || p.name == "flipper"; replying != (replies > 0) {
							t.Errorf("workers=%d: %d replies", workers, replies)
						}
					}
					e.Close()
					if want == "" {
						want = got
					} else if got != want {
						t.Errorf("workers=%d produced different results than workers=1", workers)
					}
				}
			})
		}
	}
}

// TestShardedDelayedDelivery mirrors TestClusterDelayedDelivery on the
// sharded engine: with a fixed 2-round delay every first-round send parks in
// the delay queue, and the traffic identity holds once DrainDelayed empties
// it.
func TestShardedDelayedDelivery(t *testing.T) {
	cond := faults.Lossless()
	if err := cond.SetDelay(faults.Delay{Fixed: 2}); err != nil {
		t.Fatal(err)
	}
	e, err := newSharded(runtime.Config{N: 10, NewCore: sfFactory(8, 2), Conditions: cond, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.TickRound()
	tr := e.Traffic()
	if tr.Deliveries != 0 || tr.Delayed != tr.Sends || tr.Sends == 0 {
		t.Fatalf("after one round, traffic = %+v: want all sends delayed, none delivered", tr)
	}
	if e.Pending() != tr.Sends {
		t.Fatalf("pending %d != delayed sends %d", e.Pending(), tr.Sends)
	}
	for round := 0; round < 60; round++ {
		e.TickRound()
	}
	e.DrainDelayed()
	if e.Pending() != 0 {
		t.Fatalf("pending %d after DrainDelayed", e.Pending())
	}
	tr = e.Traffic()
	if !tr.Conserved() {
		t.Errorf("traffic identity violated after drain: %+v", tr)
	}
	if tr.Deliveries == 0 {
		t.Error("no delayed deliveries happened")
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestShardedRemoveAddNode(t *testing.T) {
	e, err := newSharded(runtime.Config{N: 30, NewCore: sfFactory(12, 4), Seed: 5, ShardSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for round := 0; round < 20; round++ {
		e.TickRound()
	}
	e.RemoveNode(7)
	e.RemoveNode(7) // idempotent
	if v := e.Views()[7]; v != nil {
		t.Error("removed node still has a view")
	}
	// Gossip while 7 is down: messages addressed to it dead-letter.
	for round := 0; round < 20; round++ {
		e.TickRound()
	}
	if err := e.AddNode(7, []peer.ID{0, 1, 2, 3}, false); err != nil {
		t.Fatal(err)
	}
	if err := e.AddNode(7, []peer.ID{0, 1, 2, 3}, false); err == nil {
		t.Error("double-add accepted")
	}
	if err := e.AddNode(99, []peer.ID{0, 1}, false); err == nil {
		t.Error("out-of-universe add accepted")
	}
	for round := 0; round < 40; round++ {
		e.TickRound()
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	tr := e.Traffic()
	if !tr.Conserved() {
		t.Errorf("traffic identity violated: %+v", tr)
	}
	if tr.DeadLetters == 0 {
		t.Error("no dead letters while node 7 was down — in-flight gossip to it should have dead-lettered")
	}
}

// TestShardedRejoinSeedStreams mirrors TestClusterRejoinSeedStreams:
// distinct incarnations of the same node must draw distinct RNG streams
// (seedFor derives from (seed, id, incarnation)).
func TestShardedRejoinSeedStreams(t *testing.T) {
	e, err := newSharded(runtime.Config{N: 10, NewCore: sfFactory(8, 2), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	seeds := []peer.ID{0, 1, 2, 3}
	var trajectories [2]string
	for inc := 0; inc < 2; inc++ {
		e.RemoveNode(7)
		if err := e.AddNode(7, seeds, false); err != nil {
			t.Fatal(err)
		}
		var tr string
		for i := 0; i < 12; i++ {
			e.TickRound()
			tr += fmt.Sprint(e.Views()[7].IDs())
		}
		trajectories[inc] = tr
	}
	if trajectories[0] == trajectories[1] {
		t.Errorf("two incarnations of node 7 produced identical view trajectories — seed streams collide")
	}
}

// TestShardedChurnWhileTicking exercises the gate under concurrency: ticks,
// churn, and snapshots race from several goroutines (the race detector
// checks the serialization; the invariants check the protocol state). The
// churned ids sit on both sides of every word boundary of the liveness
// bitset, whose words four 16-node shards share: under -race the bitset's
// writers (RemoveNode, AddNode) run against a ticking pool that reads it in
// the initiate phase, in the route pass and — with the jittered delay — in
// the drain.
func TestShardedChurnWhileTicking(t *testing.T) {
	cond, err := faults.FromRate(0.02)
	if err != nil {
		t.Fatal(err)
	}
	if err := cond.SetDelay(faults.Delay{Jitter: 2}); err != nil {
		t.Fatal(err)
	}
	e, err := newSharded(runtime.Config{N: 200, NewCore: sfFactory(12, 4), Conditions: cond, Seed: 9, ShardSize: 16, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < 60; i++ {
			e.TickRound()
		}
	}()
	go func() {
		defer wg.Done()
		seeds := []peer.ID{1, 2, 3, 4}
		churned := []peer.ID{0, 63, 64, 127, 128, 199, 10, 11}
		for i := 0; i < 40; i++ {
			u := churned[i%len(churned)]
			e.RemoveNode(u)
			if err := e.AddNode(u, seeds, false); err != nil {
				t.Errorf("rejoin %v: %v", u, err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			_ = e.Views()
			_ = e.Counters()
			_ = e.Traffic()
			_ = e.Pending()
		}
	}()
	wg.Wait()
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for u, v := range e.Views() {
		if v == nil {
			t.Errorf("node %d is away after every leaver rejoined", u)
		}
	}
	e.DrainDelayed()
	if !e.Traffic().Conserved() {
		// Churn dead-letters in-flight messages but never loses track of
		// them.
		t.Errorf("traffic identity violated: %+v", e.Traffic())
	}
}

// TestShardedZeroAllocTick is the memory-budget gate, parameterized over all
// five step cores: after warm-up, a steady-state tick round performs
// zero heap allocations (flat state, reused outboxes, fused view primitives)
// — and so does one whose messages are parked in the delay calendar and
// drained through a deliver phase of their own (the delayed variants).
// CI runs this test; a protocol whose step core starts allocating per
// message fails its own subtest immediately.
func TestShardedZeroAllocTick(t *testing.T) {
	for _, p := range allProtocols() {
		for _, tc := range []struct {
			name  string
			delay faults.Delay
		}{
			{name: p.name},
			{name: p.name + "/delayed", delay: faults.Delay{Fixed: 1, Jitter: 2}},
		} {
			t.Run(tc.name, func(t *testing.T) {
				cond, err := faults.FromRate(0.02)
				if err != nil {
					t.Fatal(err)
				}
				if err := cond.SetDelay(tc.delay); err != nil {
					t.Fatal(err)
				}
				e, err := newSharded(runtime.Config{N: 2000, NewCore: p.factory, Conditions: cond, Seed: 10, Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				// Warm up until the outbox arenas and the calendar buckets
				// reach their steady-state capacity.
				for round := 0; round < 50; round++ {
					e.TickRound()
				}
				avg := testing.AllocsPerRun(20, e.TickRound)
				if avg != 0 {
					t.Errorf("steady-state TickRound allocates %.1f times per round, want 0", avg)
				}
				if delayed := e.Traffic().Delayed > 0; delayed != (tc.delay != faults.Delay{}) {
					t.Errorf("delayed messages seen: %v", delayed)
				}
			})
		}
	}
}

// TestShardedViewsAreCopies guards the bulk snapshot: mutating a returned
// view must not touch engine state, nor the other views of the snapshot.
func TestShardedViewsAreCopies(t *testing.T) {
	e, err := newSharded(runtime.Config{N: 10, NewCore: sfFactory(8, 2), Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	snap := e.Views()
	v, neighbor := snap[3], snap[4].Clone()
	var before []peer.ID
	for i := 0; i < v.Size(); i++ {
		before = append(before, v.Slot(i))
	}
	v.Set(0, peer.ID(9))
	v.Clear(1)
	again := e.Views()[3]
	for i, id := range before {
		if again.Slot(i) != id {
			t.Fatalf("slot %d changed from %v to %v after mutating a snapshot", i, id, again.Slot(i))
		}
	}
	// The views of one snapshot are windows of one slab: writing one must
	// not reach the next.
	if !snap[4].Equal(neighbor) {
		t.Errorf("mutating view 3 of a snapshot changed view 4 of it: %v, was %v", snap[4], neighbor)
	}
}

// TestShardedMatchesDefaultGeometry pins the shard geometry contract: the
// default geometry depends only on n, so results are identical whether the
// caller overrides ShardSize with the same value or leaves it 0.
func TestShardedMatchesDefaultGeometry(t *testing.T) {
	run := func(shardSize, workers int) string {
		e, err := newSharded(runtime.Config{
			N: 300, NewCore: sfFactory(8, 2), Loss: 0.1, Seed: 23,
			ShardSize: shardSize, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		for round := 0; round < 30; round++ {
			e.TickRound()
		}
		return shardedFingerprint(e)
	}
	// n=300 < default shard size 256*2: explicit 256 must equal default.
	if run(256, 1) != run(0, 2) {
		t.Error("explicit ShardSize=256 differs from default geometry")
	}
}

// delayedRunPin drives a seeded 60-round run under 5% loss and a jittered
// 1..3-round delay, with two nodes leaving in round 20 and one of them
// rejoining in round 40, drains the delay calendar, and condenses the
// outcome to a digest of every view slot plus the traffic ledger.
func delayedRunPin(t *testing.T, cfg runtime.Config) (uint64, metrics.Traffic) {
	t.Helper()
	cond, err := faults.FromRate(0.05)
	if err != nil {
		t.Fatal(err)
	}
	if err := cond.SetDelay(faults.Delay{Fixed: 1, Jitter: 2}); err != nil {
		t.Fatal(err)
	}
	cfg.Conditions = cond
	sub, err := runtime.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	for round := 0; round < 60; round++ {
		switch round {
		case 20:
			sub.RemoveNode(7)
			sub.RemoveNode(peer.ID(cfg.N / 2))
		case 40:
			if err := sub.AddNode(7, []peer.ID{10, 11, 12, 13, 14, 15, 16, 17}, false); err != nil {
				t.Fatal(err)
			}
		}
		sub.TickRound()
	}
	sub.DrainDelayed()
	if p := sub.Pending(); p != 0 {
		t.Fatalf("pending %d after DrainDelayed", p)
	}
	return viewDigest(sub), sub.Traffic()
}

// viewDigest hashes every view slot of the substrate, a marker standing in
// for the view of a departed node.
func viewDigest(sub runtime.Substrate) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range sub.Views() {
		if v == nil {
			h.Write([]byte{0xff})
			continue
		}
		for i := 0; i < v.Size(); i++ {
			binary.LittleEndian.PutUint64(b[:], uint64(v.Slot(i)))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// shardedFaultRun drives a seeded 80-round run through every fault path the
// sharded engine has — Gilbert-Elliott bursts at a 5% long-run rate, a
// jittered 0..2-round delay, a partition of the even from the odd ids over
// rounds 25..34, a lossy link, two nodes leaving in round 20 and one of them
// rejoining in round 50 — drains the delay calendars, and condenses the
// outcome to a digest of every view slot, the traffic ledger and the fault
// stack's counters.
func shardedFaultRun(t *testing.T, factory protocol.CoreFactory, workers int) (uint64, metrics.Traffic, faults.Counters) {
	t.Helper()
	const n = 2000
	burst, err := loss.BurstyWithRate(0.05, 4)
	if err != nil {
		t.Fatal(err)
	}
	cond, err := faults.New(burst)
	if err != nil {
		t.Fatal(err)
	}
	if err := cond.SetDelay(faults.Delay{Jitter: 2}); err != nil {
		t.Fatal(err)
	}
	sub, err := newSharded(runtime.Config{N: n, NewCore: factory, Conditions: cond, Seed: 31, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	var even, odd []peer.ID
	for u := 0; u < n; u++ {
		if u%2 == 0 {
			even = append(even, peer.ID(u))
		} else {
			odd = append(odd, peer.ID(u))
		}
	}
	for round := 0; round < 80; round++ {
		switch round {
		case 10:
			cond.SetLinkLoss(3, 4, loss.MustUniform(1))
		case 20:
			sub.RemoveNode(7)
			sub.RemoveNode(n / 2)
		case 25:
			cond.Partition(even, odd)
		case 35:
			cond.Heal()
		case 50:
			if err := sub.AddNode(7, []peer.ID{10, 11, 12, 13, 14, 15, 16, 17}, false); err != nil {
				t.Fatal(err)
			}
		}
		sub.TickRound()
	}
	sub.DrainDelayed()
	if p := sub.Pending(); p != 0 {
		t.Fatalf("pending %d after DrainDelayed", p)
	}
	return viewDigest(sub), sub.Traffic(), cond.Counters()
}

// TestShardedDelayedRunPin is the sharded engine's determinism gate on its
// fault paths: for all five protocols the run of shardedFaultRun is the same —
// every view slot, the ledger, the fault counters — whether 1, 2, 3 or 8
// workers tick it (8 is one per shard), and it is the run recorded here. A
// shard rules on what is addressed to it from a stream of its own and drains
// a calendar of its own, so nothing about the run depends on which worker
// took which shard. Re-recorded when the verdicts moved from one engine-wide
// stream to one per destination shard; shuffle and flipper, whose delayed
// replies used to be ruled in an order this file did not pin, are pinned with
// the rest.
func TestShardedDelayedRunPin(t *testing.T) {
	pins := map[string]struct {
		digest  uint64
		traffic metrics.Traffic
		faults  faults.Counters
	}{
		// Recorded with the verdicts drawn per destination shard.
		"sf":       {0x88468b4669ea23cf, metrics.Traffic{Sends: 44229, Losses: 4404, Deliveries: 39809, DeadLetters: 16, LinkLosses: 3, PartitionDrops: 2408, Delayed: 26696}, faults.Counters{Decisions: 44229, ModelDrops: 1993, LinkDrops: 3, PartitionDrops: 2408, Delayed: 26696, Partitions: 1, Heals: 1}},
		"sfopt":    {0xa82b2847ab1e1073, metrics.Traffic{Sends: 44125, Losses: 4360, Deliveries: 39753, DeadLetters: 12, LinkLosses: 1, PartitionDrops: 2392, Delayed: 26648}, faults.Counters{Decisions: 44125, ModelDrops: 1967, LinkDrops: 1, PartitionDrops: 2392, Delayed: 26648, Partitions: 1, Heals: 1}},
		"shuffle":  {0x7e051fb4d7761a3, metrics.Traffic{Sends: 39158, Losses: 3251, Deliveries: 35898, DeadLetters: 9, PartitionDrops: 1415, Delayed: 24042}, faults.Counters{Decisions: 39158, ModelDrops: 1836, PartitionDrops: 1415, Delayed: 24042, Partitions: 1, Heals: 1}},
		"flipper":  {0xe0d691f51c312b30, metrics.Traffic{Sends: 47582, Losses: 4035, Deliveries: 43531, DeadLetters: 16, LinkLosses: 1, PartitionDrops: 1890, Delayed: 29209}, faults.Counters{Decisions: 47582, ModelDrops: 2144, LinkDrops: 1, PartitionDrops: 1890, Delayed: 29209, Partitions: 1, Heals: 1}},
		"pushpull": {0xe3d7de384eeeff02, metrics.Traffic{Sends: 147878, Losses: 16266, Deliveries: 131590, DeadLetters: 22, LinkLosses: 5, PartitionDrops: 9088, Delayed: 87997}, faults.Counters{Decisions: 147878, ModelDrops: 7173, LinkDrops: 5, PartitionDrops: 9088, Delayed: 87997, Partitions: 1, Heals: 1}},
	}
	for _, p := range allProtocols() {
		pin := pins[p.name]
		for _, workers := range []int{1, 2, 3, 8} {
			digest, traffic, fc := shardedFaultRun(t, p.factory, workers)
			if digest != pin.digest || traffic != pin.traffic || fc != pin.faults {
				t.Errorf("%s workers=%d: digest %#x traffic %+v faults %+v, want %#x %+v %+v", p.name, workers, digest, traffic, fc, pin.digest, pin.traffic, pin.faults)
			}
			if fc.Decisions != traffic.Sends || fc.Drops() != traffic.Losses || fc.Delayed != traffic.Delayed || !traffic.Conserved() {
				t.Errorf("%s workers=%d: fault counters %+v do not account for ledger %+v", p.name, workers, fc, traffic)
			}
			if traffic.PartitionDrops == 0 || traffic.DeadLetters == 0 || traffic.Delayed == 0 || fc.ModelDrops == 0 {
				t.Errorf("%s workers=%d: a fault path did not run: %+v", p.name, workers, traffic)
			}
		}
	}
}

// TestDelayedRunPinSeqAndCluster is the same pin for the two substrates that
// drain the router one message at a time — the sequential engine and a
// manually ticked Cluster — for all five protocols, recorded at the same
// parent commit: their Due order, and so their whole run, must not move.
func TestDelayedRunPinSeqAndCluster(t *testing.T) {
	type pin struct {
		digest  uint64
		traffic metrics.Traffic
	}
	pins := map[runtime.EngineKind]map[string]pin{
		runtime.EngineSeq: {
			"sf":       {0xac057a4fdcfc9651, metrics.Traffic{Sends: 3485, Losses: 161, Deliveries: 3314, DeadLetters: 10, Delayed: 3324}},
			"sfopt":    {0xc1235952eb2ab95b, metrics.Traffic{Sends: 3379, Losses: 169, Deliveries: 3201, DeadLetters: 9, Delayed: 3210}},
			"shuffle":  {0x6ad3a28fac1808e4, metrics.Traffic{Sends: 3494, Losses: 165, Deliveries: 3321, DeadLetters: 8, Delayed: 3329}},
			"flipper":  {0xabbea79cc75ef6d7, metrics.Traffic{Sends: 4077, Losses: 197, Deliveries: 3873, DeadLetters: 7, Delayed: 3880}},
			"pushpull": {0xe933280592dbd002, metrics.Traffic{Sends: 10544, Losses: 541, Deliveries: 9967, DeadLetters: 36, Delayed: 10003}},
		},
		runtime.EngineCluster: {
			"sf":       {0xc2eb43e682dee075, metrics.Traffic{Sends: 3610, Losses: 181, Deliveries: 3415, DeadLetters: 14, Delayed: 3429}},
			"sfopt":    {0x3ed3076ad51c9705, metrics.Traffic{Sends: 3499, Losses: 174, Deliveries: 3316, DeadLetters: 9, Delayed: 3325}},
			"shuffle":  {0x7be6518c475afbf6, metrics.Traffic{Sends: 3535, Losses: 176, Deliveries: 3353, DeadLetters: 6, Delayed: 3359}},
			"flipper":  {0xe5ee243fad8d706c, metrics.Traffic{Sends: 4144, Losses: 211, Deliveries: 3923, DeadLetters: 10, Delayed: 3933}},
			"pushpull": {0xa2f194e76147f2b, metrics.Traffic{Sends: 10619, Losses: 553, Deliveries: 10040, DeadLetters: 26, Delayed: 10066}},
		},
	}
	for engine, byProtocol := range pins {
		for _, p := range allProtocols() {
			want := byProtocol[p.name]
			digest, traffic := delayedRunPin(t, runtime.Config{Engine: engine, N: 200, NewCore: p.factory, Seed: 31})
			if digest != want.digest || traffic != want.traffic {
				t.Errorf("%s %s: digest %#x traffic %+v, want %#x %+v", engine, p.name, digest, traffic, want.digest, want.traffic)
			}
		}
	}
}
