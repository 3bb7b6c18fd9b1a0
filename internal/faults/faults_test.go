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
		if got := c.separated(tc.from, tc.to); got != tc.cut {
			t.Errorf("separated(%v, %v) = %v, want %v", tc.from, tc.to, got, tc.cut)
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
	if c.separated(0, 2) {
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
		for _, from := range probe {
			for _, to := range probe {
				want := groupOf(from) != groupOf(to)
				if got := c.separated(from, to); got != want {
					t.Errorf("grouping %d: separated(%v, %v) = %v, want %v", gi, from, to, got, want)
				}
				ses := c.Begin()
				v := ses.Decide(from, to, r)
				ses.Close()
				if (v.Drop == DropPartition) != want {
					t.Errorf("grouping %d: Decide(%v, %v) = %+v, want partition drop %v", gi, from, to, v, want)
				}
			}
		}
		if r.Uint64() != untouched.Uint64() {
			t.Errorf("grouping %d: a lossless, delay-free stack drew from the RNG", gi)
		}
		c.Heal()
		if got := c.Counters(); got.Partitions != 1 || got.Heals != 1 {
			t.Errorf("grouping %d: counters = %+v, want 1 partition, 1 heal", gi, got)
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

// TestDestinationAwareBase hands a base model the destination on every way
// of reaching the stack: Conditions.Decide, a Session and an attached Decider
// rule alike, dropping what goes to the lossy destination and passing what
// goes to the clean one.
func TestDestinationAwareBase(t *testing.T) {
	stack := func() *Conditions {
		pd, err := loss.NewPerDest(0, map[peer.ID]float64{7: 1})
		if err != nil {
			t.Fatal(err)
		}
		c, err := New(pd)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	direct, inSession, attached := stack(), stack(), stack()
	r := rng.New(6)
	ses := inSession.Begin()
	defer ses.Close()
	var d Decider
	attached.Attach(&d, 6)
	attached.Sync()
	paths := map[string]func(from, to peer.ID) Verdict{
		"Decide":         func(from, to peer.ID) Verdict { return direct.Decide(from, to, r) },
		"Session.Decide": func(from, to peer.ID) Verdict { return ses.Decide(from, to, r) },
		"Decider.Decide": d.Decide,
	}
	for name, decide := range paths {
		for i := range 20 {
			from := peer.ID(i % 5)
			if v := decide(from, 7); v.Drop != DropModel {
				t.Errorf("%s: per-dest lossy destination survived: %+v", name, v)
			}
			if v := decide(from, 1); v.Drop != DropNone {
				t.Errorf("%s: per-dest clean destination dropped: %+v", name, v)
			}
		}
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
			r := rng.New(rng.Seed(w + 1))
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
	if got := c.Counters(); got.Partitions != 200 || got.Heals != 200 {
		t.Errorf("counters = %+v, want 200 partitions and 200 heals", got)
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
	// Reload to certain loss: the next decision must drop.
	if err := c.SetRate(1); err != nil {
		t.Fatal(err)
	}
	if got := c.Rate(); got != 1 {
		t.Errorf("Rate after reload = %v, want 1", got)
	}
	if v := c.Decide(0, 1, r); v.Drop != DropModel {
		t.Errorf("verdict after reload = %+v, want model drop", v)
	}
	if err := c.SetRate(1.5); err == nil {
		t.Error("accepted rate > 1")
	}
	if err := c.SetBase(nil); err == nil {
		t.Error("accepted nil base model")
	}
}

// fullStack builds a stack that takes every branch of the decision order: a
// Gilbert-Elliott base, an even/odd partition over the low ids, and a
// jittered delay.
func fullStack(t *testing.T) *Conditions {
	t.Helper()
	ge, err := loss.BurstyWithRate(0.2, 4)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(ge)
	if err != nil {
		t.Fatal(err)
	}
	c.Partition([]peer.ID{0, 2, 4, 6}, []peer.ID{1, 3, 5, 7})
	if err := c.SetDelay(Delay{Fixed: 1, Jitter: 3}); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestOneDecisionBody is the guarantee that the decision order is written
// once: the same seeded sequence of attempts draws the same verdicts whether
// it goes through Conditions.Decide, an open Session, or a Decider ruling
// against a Sync snapshot on its own fork of the base model.
func TestOneDecisionBody(t *testing.T) {
	const seed, trials = 77, 5000
	attempt := func(i int) (from, to peer.ID) {
		if i%2 == 0 {
			return peer.ID(i % 8), peer.ID((i / 2) % 8) // inside the partition table
		}
		return peer.ID(30 + i%5), peer.ID(40 + i%7)
	}
	run := func(decide func(from, to peer.ID) Verdict) []Verdict {
		vs := make([]Verdict, trials)
		for i := range vs {
			vs[i] = decide(attempt(i))
		}
		return vs
	}

	direct := fullStack(t)
	r := rng.New(seed)
	want := run(func(from, to peer.ID) Verdict { return direct.Decide(from, to, r) })
	seen := map[Drop]bool{}
	delayed := false
	for _, v := range want {
		seen[v.Drop] = true
		delayed = delayed || v.Delay > 1
	}
	if len(seen) != 3 || !delayed {
		t.Fatalf("the sequence does not exercise every branch: drops %v, jitter seen %v", seen, delayed)
	}

	inSession := fullStack(t)
	r = rng.New(seed)
	ses := inSession.Begin()
	got := run(func(from, to peer.ID) Verdict { return ses.Decide(from, to, r) })
	ses.Close()

	attached := fullStack(t)
	var d Decider
	attached.Attach(&d, seed)
	attached.Sync()
	snap := run(d.Decide)

	for i := range want {
		if got[i] != want[i] || snap[i] != want[i] {
			t.Fatalf("attempt %d: Decide %+v, Session.Decide %+v, Decider.Decide %+v", i, want[i], got[i], snap[i])
		}
	}
}

// TestDeciderPlain: Plain takes over exactly the configurations whose
// decision is one trial of a stateless uniform base at a rate inside (0, 1),
// is in force from the Sync that makes the configuration plain until the one
// that ends it, and there draws and rules as Decide does, verdict for
// verdict on the same stream.
func TestDeciderPlain(t *testing.T) {
	plain := func(c *Conditions) bool {
		var d Decider
		c.Attach(&d, 1)
		c.Sync()
		_, ok := d.Plain()
		return ok
	}
	burst, err := loss.BurstyWithRate(0.1, 4)
	if err != nil {
		t.Fatal(err)
	}
	perDest, err := loss.NewPerDest(0.1, map[peer.ID]float64{3: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]*Conditions{
		"lossless":     Lossless(),
		"rate 0":       mustStack(t, loss.MustUniform(0)),
		"rate 1":       mustStack(t, loss.MustUniform(1)),
		"bursty":       mustStack(t, burst),
		"per-dest":     mustStack(t, perDest),
		"partitioned":  mustStack(t, loss.MustUniform(0.1)),
		"fixed delay":  mustStack(t, loss.MustUniform(0.1)),
		"jitter delay": mustStack(t, loss.MustUniform(0.1)),
	} {
		switch name {
		case "partitioned":
			c.Partition([]peer.ID{1, 2})
		case "fixed delay":
			_ = c.SetDelay(Delay{Fixed: 1})
		case "jitter delay":
			_ = c.SetDelay(Delay{Jitter: 1})
		}
		if plain(c) {
			t.Errorf("%s: Plain rules a configuration that is not plain", name)
		}
	}

	c := mustStack(t, loss.MustUniform(0.2))
	var fast, full Decider
	c.Attach(&fast, 5)
	c.Attach(&full, 5)
	c.Sync()
	for i := 0; i < 5000; i++ {
		lost, ok := fast.Plain()
		v := full.Decide(peer.ID(i%9), peer.ID(i%7))
		if !ok || lost != (v.Drop == DropModel) || v.Delay != 0 {
			t.Fatalf("trial %d: Plain (%v, %v), Decide %+v", i, lost, ok, v)
		}
	}
	c.Partition([]peer.ID{1})
	if _, ok := fast.Plain(); !ok {
		t.Fatal("a partition took effect before the Sync")
	}
	c.Sync()
	if _, ok := fast.Plain(); ok {
		t.Fatal("Plain still rules after a Sync under a partition")
	}
	c.Heal()
	c.Sync()
	if _, ok := fast.Plain(); !ok {
		t.Fatal("Plain does not rule again after the heal's Sync")
	}
}

func mustStack(t *testing.T, base loss.Model) *Conditions {
	t.Helper()
	c, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestDeciderRulesAgainstTheLastSync pins the snapshot contract: a decider
// sees a reconfiguration — of any part of the stack — at the next Sync and
// not before, each decider bursts on its own fork of a stateful base model,
// and SetBase seats a fresh fork per decider.
func TestDeciderRulesAgainstTheLastSync(t *testing.T) {
	c := Lossless()
	var a, b Decider
	c.Attach(&a, 1)
	c.Attach(&b, 2)
	c.Sync()

	stuck, err := loss.NewGilbertElliott(0, 1, 1, 0) // Bad, and dropping, from its first message on
	if err != nil {
		t.Fatal(err)
	}
	changes := []struct {
		name     string
		set      func()
		from, to peer.ID
		want     Verdict
	}{
		{"SetBase", func() { _ = c.SetBase(stuck) }, 0, 1, Verdict{Drop: DropModel}},
		{"SetRate", func() { _ = c.SetRate(0) }, 0, 1, Verdict{}},
		{"Partition", func() { c.Partition([]peer.ID{0}, []peer.ID{1}) }, 0, 1, Verdict{Drop: DropPartition}},
		{"Heal", func() { c.Heal() }, 0, 1, Verdict{}},
		{"SetDelay", func() { _ = c.SetDelay(Delay{Fixed: 4}) }, 0, 1, Verdict{Delay: 4}},
	}
	before := Verdict{}
	for _, ch := range changes {
		ch.set()
		for _, d := range []*Decider{&a, &b} {
			if v := d.Decide(ch.from, ch.to); v != before {
				t.Errorf("%s reached a decider before the Sync: %+v, want %+v", ch.name, v, before)
			}
		}
		c.Sync()
		for _, d := range []*Decider{&a, &b} {
			if v := d.Decide(ch.from, ch.to); v != ch.want {
				t.Errorf("after %s and a Sync a decider ruled %+v, want %+v", ch.name, v, ch.want)
			}
		}
		before = ch.want
	}
	if got := c.Counters(); got.Partitions != 1 || got.Heals != 1 {
		t.Errorf("counters = %+v, want 1 partition and 1 heal", got)
	}

	// Forks: two deciders over one Gilbert-Elliott base each keep a channel
	// state of their own, and the model handed to SetBase is never advanced.
	ge, err := loss.NewGilbertElliott(0, 1, 0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	probe := *ge
	if err := c.SetBase(ge); err != nil {
		t.Fatal(err)
	}
	if err := c.SetDelay(Delay{}); err != nil {
		t.Fatal(err)
	}
	c.Sync()
	same := true
	for i := 0; i < 200; i++ {
		same = same && a.Decide(5, 6) == b.Decide(5, 6)
	}
	if same {
		t.Error("two deciders with different streams drew the same 200 verdicts from a bursty base")
	}
	if *ge != probe {
		t.Errorf("the base model handed to SetBase was advanced: %+v, was %+v", *ge, probe)
	}
	if a.base == b.base || a.base == loss.Model(ge) {
		t.Error("deciders share a stateful base model")
	}
}

// TestSyncAgainstRunningDeciders runs deciders on their own goroutines
// between Syncs while another goroutine reconfigures the stack: the setters
// never touch what a decider reads (run under -race).
func TestSyncAgainstRunningDeciders(t *testing.T) {
	ge, err := loss.BurstyWithRate(0.1, 3)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(ge)
	if err != nil {
		t.Fatal(err)
	}
	ds := make([]Decider, 4)
	for i := range ds {
		c.Attach(&ds[i], rng.Seed(i+1))
	}
	stop := make(chan struct{})
	var setters sync.WaitGroup
	setters.Add(1)
	go func() {
		defer setters.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			c.Partition([]peer.ID{0, 1, 2, 3}, []peer.ID{4, 5, 6, 7})
			_ = c.SetDelay(Delay{Fixed: i % 2, Jitter: i % 3})
			_ = c.SetRate(0.3)
			c.Heal()
			_ = c.SetDelay(Delay{})
			_ = c.SetBase(ge)
		}
	}()
	const phases, perPhase = 50, 200
	for p := 0; p < phases; p++ {
		c.Sync()
		var wg sync.WaitGroup
		for i := range ds {
			wg.Add(1)
			go func(d *Decider) {
				defer wg.Done()
				for j := 0; j < perPhase; j++ {
					d.Decide(peer.ID(j%8), peer.ID((j+1)%8))
				}
			}(&ds[i])
		}
		wg.Wait()
	}
	close(stop)
	setters.Wait()
	if got := c.Counters(); got.Partitions != got.Heals {
		t.Errorf("counters = %+v: every partition was healed", got)
	}
}
