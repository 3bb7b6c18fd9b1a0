package faults

import (
	"math"
	"sync"
	"testing"

	"sendforget/internal/loss"
	"sendforget/internal/peer"
	"sendforget/internal/rng"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("accepted nil base model")
	}
	if _, err := FromRate(1.5); err == nil {
		t.Error("accepted rate > 1")
	}
	c := Lossless()
	if c.Rate() != 0 {
		t.Errorf("lossless rate = %v", c.Rate())
	}
}

func TestDecideBaseModel(t *testing.T) {
	c, err := FromRate(1) // always drop
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(1)
	if v := c.Decide(0, 1, r); v.Drop != DropModel {
		t.Errorf("verdict = %+v, want model drop", v)
	}
	got := c.Counters()
	if got.Decisions != 1 || got.ModelDrops != 1 || got.Drops() != 1 {
		t.Errorf("counters = %+v", got)
	}
}

func TestLinkOverrideBypassesBase(t *testing.T) {
	// Base always drops; the overridden link never does, and vice versa.
	c, err := FromRate(1)
	if err != nil {
		t.Fatal(err)
	}
	c.SetLinkLoss(0, 1, loss.None{})
	c.SetLinkLoss(2, 3, loss.MustUniform(1))
	r := rng.New(2)
	if v := c.Decide(0, 1, r); v.Drop != DropNone {
		t.Errorf("overridden lossless link dropped: %+v", v)
	}
	// The override is directed: the reverse link uses the base model.
	if v := c.Decide(1, 0, r); v.Drop != DropModel {
		t.Errorf("reverse link verdict = %+v, want model drop", v)
	}
	if v := c.Decide(2, 3, r); v.Drop != DropLink {
		t.Errorf("lossy link verdict = %+v, want link drop", v)
	}
	got := c.Counters()
	if got.LinkDrops != 1 || got.ModelDrops != 1 {
		t.Errorf("counters = %+v", got)
	}
	// Removing the override restores the base model.
	c.SetLinkLoss(0, 1, nil)
	if v := c.Decide(0, 1, r); v.Drop != DropModel {
		t.Errorf("removed override verdict = %+v, want model drop", v)
	}
}

func TestPartitionAndHeal(t *testing.T) {
	c := Lossless()
	r := rng.New(3)
	c.Partition([]peer.ID{0, 1}, []peer.ID{2, 3})
	cases := []struct {
		from, to peer.ID
		cut      bool
	}{
		{0, 1, false}, // same group
		{0, 2, true},  // across groups
		{3, 1, true},
		{0, 9, true}, // 9 is in no group: implicit leftover group
		{9, 8, false},
	}
	for _, tc := range cases {
		if got := c.Partitioned(tc.from, tc.to); got != tc.cut {
			t.Errorf("Partitioned(%v, %v) = %v, want %v", tc.from, tc.to, got, tc.cut)
		}
		wantDrop := DropNone
		if tc.cut {
			wantDrop = DropPartition
		}
		if v := c.Decide(tc.from, tc.to, r); v.Drop != wantDrop {
			t.Errorf("Decide(%v, %v) = %+v, want drop %v", tc.from, tc.to, v, wantDrop)
		}
	}
	c.Heal()
	c.Heal() // idempotent: only one heal counted
	if c.Partitioned(0, 2) {
		t.Error("still partitioned after Heal")
	}
	if v := c.Decide(0, 2, r); v.Drop != DropNone {
		t.Errorf("post-heal verdict = %+v", v)
	}
	got := c.Counters()
	if got.Partitions != 1 || got.Heals != 1 {
		t.Errorf("counters = %+v", got)
	}
}

// TestPartitionTableMatchesMapModel holds the dense group table to the map
// it replaced, over the ids a table can get wrong: gaps inside the table, ids
// past its end, peer.Nil and other negative ids (ignored by Partition, in no
// group ever), an id listed twice (the last listing wins), and the empty
// partition. A partition drop draws nothing from the RNG.
func TestPartitionTableMatchesMapModel(t *testing.T) {
	groupings := [][][]peer.ID{
		{{0, 1}, {2, 3}},
		{{5, 63, 64}, {7, 200}},  // gaps: 0..4, 6, 8..62 are in the table and in no group
		{{peer.Nil, 3}, {-7, 4}}, // negative ids name no node
		{{1, 2}, {2, 9}},         // 2 listed twice
		{{}, {6}},                // an empty group still takes an index
		{},                       // no groups: everyone is in the leftover group
		{{peer.Nil}},             // a table of no entries
	}
	probe := []peer.ID{peer.Nil, -7, 0, 1, 2, 3, 4, 5, 6, 7, 9, 63, 64, 65, 199, 200, 201, 1 << 20}
	for gi, groups := range groupings {
		model := make(map[peer.ID]int)
		for i, members := range groups {
			for _, id := range members {
				if id >= 0 {
					model[id] = i
				}
			}
		}
		groupOf := func(id peer.ID) int {
			if g, ok := model[id]; ok {
				return g
			}
			return -1
		}
		c := Lossless()
		c.Partition(groups...)
		r, untouched := rng.New(11), rng.New(11)
		drops := 0
		for _, from := range probe {
			for _, to := range probe {
				want := groupOf(from) != groupOf(to)
				if got := c.Partitioned(from, to); got != want {
					t.Errorf("grouping %d: Partitioned(%v, %v) = %v, want %v", gi, from, to, got, want)
				}
				ses := c.Begin()
				v := ses.Decide(from, to, r)
				ses.Close()
				if (v.Drop == DropPartition) != want {
					t.Errorf("grouping %d: Decide(%v, %v) = %+v, want partition drop %v", gi, from, to, v, want)
				}
				if want {
					drops++
				}
			}
		}
		if r.Uint64() != untouched.Uint64() {
			t.Errorf("grouping %d: a lossless, delay-free stack drew from the RNG", gi)
		}
		c.Heal()
		if got := c.Counters(); got.Partitions != 1 || got.Heals != 1 || got.PartitionDrops != drops {
			t.Errorf("grouping %d: counters = %+v, want 1 partition, 1 heal, %d partition drops", gi, got, drops)
		}
	}
}

func TestDelayAndJitter(t *testing.T) {
	c := Lossless()
	if err := c.SetDelay(Delay{Fixed: -1}); err == nil {
		t.Error("accepted negative delay")
	}
	// A delay sizes the substrates' calendars: anything past MaxDelay rounds
	// is refused, including sums that overflow int, and leaves the stack as
	// it was.
	for _, d := range []Delay{
		{Fixed: MaxDelay + 1},
		{Jitter: MaxDelay + 1},
		{Fixed: MaxDelay, Jitter: 1},
		{Fixed: math.MaxInt, Jitter: math.MaxInt},
		{Fixed: 1, Jitter: math.MaxInt},
	} {
		if err := c.SetDelay(d); err == nil {
			t.Errorf("accepted delay %+v", d)
		}
	}
	if v := c.Decide(0, 1, rng.New(1)); v.Delay != 0 {
		t.Errorf("a rejected delay took effect: %+v", v)
	}
	if err := c.SetDelay(Delay{Fixed: MaxDelay - 3, Jitter: 3}); err != nil {
		t.Errorf("rejected the largest delay: %v", err)
	}
	if err := c.SetDelay(Delay{Fixed: 2, Jitter: 3}); err != nil {
		t.Fatal(err)
	}
	r := rng.New(4)
	seen := make(map[int]bool)
	for i := 0; i < 200; i++ {
		v := c.Decide(0, 1, r)
		if v.Drop != DropNone {
			t.Fatalf("lossless stack dropped: %+v", v)
		}
		if v.Delay < 2 || v.Delay > 5 {
			t.Fatalf("delay %d outside [2, 5]", v.Delay)
		}
		seen[v.Delay] = true
	}
	if len(seen) != 4 {
		t.Errorf("jitter produced delays %v, want all of 2..5", seen)
	}
	if got := c.Counters().Delayed; got != 200 {
		t.Errorf("Delayed = %d, want 200", got)
	}
	// Disabling restores immediate delivery.
	if err := c.SetDelay(Delay{}); err != nil {
		t.Fatal(err)
	}
	if v := c.Decide(0, 1, r); v.Delay != 0 {
		t.Errorf("delay %d after disable", v.Delay)
	}
}

func TestGilbertElliottBaseBursts(t *testing.T) {
	ge, err := loss.BurstyWithRate(0.2, 4)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(ge)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(5)
	drops, runs, inRun := 0, 0, false
	const trials = 20000
	for i := 0; i < trials; i++ {
		if c.Decide(0, 1, r).Drop == DropModel {
			drops++
			if !inRun {
				runs++
				inRun = true
			}
		} else {
			inRun = false
		}
	}
	rate := float64(drops) / trials
	if rate < 0.15 || rate > 0.25 {
		t.Errorf("empirical burst loss rate %.3f, want ~0.2", rate)
	}
	meanBurst := float64(drops) / float64(runs)
	if meanBurst < 3 || meanBurst > 5 {
		t.Errorf("mean burst length %.2f, want ~4", meanBurst)
	}
}

func TestDestinationAwareBase(t *testing.T) {
	pd, err := loss.NewPerDest(0, map[peer.ID]float64{7: 1})
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(pd)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(6)
	if v := c.Decide(0, 7, r); v.Drop != DropModel {
		t.Errorf("per-dest lossy destination survived: %+v", v)
	}
	if v := c.Decide(0, 1, r); v.Drop != DropNone {
		t.Errorf("per-dest clean destination dropped: %+v", v)
	}
}

func TestConcurrentDecideAndRepartition(t *testing.T) {
	// The runtime decides from handler goroutines while a test partitions
	// and heals: must be race-free (run under -race).
	c := Lossless()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rng.New(int64(w + 1))
			for i := 0; i < 2000; i++ {
				c.Decide(peer.ID(i%8), peer.ID((i+1)%8), r)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			c.Partition([]peer.ID{0, 1, 2, 3}, []peer.ID{4, 5, 6, 7})
			c.Heal()
		}
	}()
	wg.Wait()
	if got := c.Counters().Decisions; got != 8000 {
		t.Errorf("Decisions = %d, want 8000", got)
	}
}

func TestSetRateLiveReload(t *testing.T) {
	c, err := FromRate(0) // never drop
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(1)
	if v := c.Decide(0, 1, r); v.Drop != DropNone {
		t.Errorf("verdict before reload = %+v, want delivery", v)
	}
	// Reload to certain loss: the next decision must drop, and the
	// counters accumulated so far must survive the swap.
	if err := c.SetRate(1); err != nil {
		t.Fatal(err)
	}
	if got := c.Rate(); got != 1 {
		t.Errorf("Rate after reload = %v, want 1", got)
	}
	if v := c.Decide(0, 1, r); v.Drop != DropModel {
		t.Errorf("verdict after reload = %+v, want model drop", v)
	}
	got := c.Counters()
	if got.Decisions != 2 || got.ModelDrops != 1 {
		t.Errorf("counters after reload = %+v", got)
	}
	if err := c.SetRate(1.5); err == nil {
		t.Error("accepted rate > 1")
	}
	if err := c.SetBase(nil); err == nil {
		t.Error("accepted nil base model")
	}
	// Link overrides survive a base reload.
	m, err := loss.NewUniform(0)
	if err != nil {
		t.Fatal(err)
	}
	c.SetLinkLoss(0, 1, m)
	if err := c.SetRate(1); err != nil {
		t.Fatal(err)
	}
	if v := c.Decide(0, 1, r); v.Drop != DropNone {
		t.Errorf("override link after reload = %+v, want delivery", v)
	}
}
