package main

import (
	"fmt"
	"math"
	gort "runtime"
	"time"

	"sendforget/internal/degreemc"
	"sendforget/internal/faults"
	"sendforget/internal/loss"
	"sendforget/internal/mgmt"
	"sendforget/internal/peer"
	"sendforget/internal/protocol"
	"sendforget/internal/protocol/pushpull"
	"sendforget/internal/protocol/sendforget"
	"sendforget/internal/rng"
	"sendforget/internal/runtime"
	"sendforget/internal/view"
)

// The paper's Figure 6.3 parameters, shared by the two S&F sharded
// workloads, and the push-pull view size of BENCH_cluster.json's slowest row.
const (
	sfS, sfDL, sfLoss = 40, 18, 0.01
	pushpullS         = 16
)

func sfCore() (protocol.StepCore, error)       { return sendforget.NewCore(sfS, sfDL) }
func pushpullCore() (protocol.StepCore, error) { return pushpull.NewCore(pushpullS) }

// shardedSpec is what distinguishes the sharded workloads from each other.
type shardedSpec struct {
	n, warm int
	proto   string // as sfnode's -protocol flag names it
	s, dl   int
	newCore protocol.CoreFactory
	loss    float64                            // uniform rate, when conditions is nil
	cond    func() (*faults.Conditions, error) // fault stack, built per set-up
	churn   bool                               // run the churn and partition script
	// sfOracle marks an S&F run at the Figure 6.3 parameters, whose degree
	// and duplication rate the degree Markov chain predicts.
	sfOracle bool
}

// sharded is a warmed-up sharded substrate being measured.
type sharded struct {
	spec shardedSpec
	o    options
	sub  runtime.Substrate // as the harness calls it: possibly decorated
	rec  *recorder
	sc   *script

	// local is the mgmt.Local adapter the daemon puts over a substrate and
	// scr the management server over it. Only the daemon workload ticks
	// through local and scrapes during rounds; the others scrape between
	// segments.
	local *mgmt.Local
	scr   *scraper

	base        runtime.NodeCounters // counters at the start of the timed region
	pendingPeak int
	drain       time.Duration
	final       []*view.View
}

// buildSharded constructs and warms up a sharded substrate.
func buildSharded(o options, spec shardedSpec, rec *recorder) (*sharded, setupInfo, error) {
	cfg := runtime.Config{
		Engine:  runtime.EngineSharded,
		N:       spec.n,
		NewCore: spec.newCore,
		Loss:    spec.loss,
		Seed:    o.seed,
		Workers: o.workers,
	}
	if spec.cond != nil {
		cond, err := spec.cond()
		if err != nil {
			return nil, setupInfo{}, err
		}
		cfg.Conditions = cond
	}
	t0 := time.Now()
	sub, err := runtime.New(cfg)
	if err != nil {
		return nil, setupInfo{}, err
	}
	info := setupInfo{nodes: spec.n, warmRounds: spec.warm, construct: time.Since(t0)}
	if o.wrap != nil {
		sub = o.wrap(sub)
	}
	if rec != nil {
		sub = tracedSub{sub, rec}
	}
	t0 = time.Now()
	for i := 0; i < spec.warm; i++ {
		sub.TickRound()
	}
	info.warmup = time.Since(t0)
	sh := &sharded{spec: spec, o: o, sub: sub, rec: rec}
	if spec.churn {
		sh.sc = newScript(o.seed, spec.n, o.segRounds())
	}
	sh.local, err = mgmt.NewLocal(mgmt.LocalOptions{
		Sub: sub, Protocol: spec.proto, Engine: string(runtime.EngineSharded),
		N: spec.n, S: spec.s, DL: spec.dl, Seed: o.seed, Period: time.Second, Loss: spec.loss,
	})
	if err == nil {
		sh.scr, err = newScraper(sh.local)
	}
	if err != nil {
		sub.Close()
		return nil, info, err
	}
	return sh, info, nil
}

func (sh *sharded) begin(time.Time) { sh.base = sh.sub.Counters() }
func (sh *sharded) end()            {}

func (sh *sharded) round(r int) {
	if sh.sc != nil {
		sh.sc.before(r, sh.sub)
	}
	sh.sub.TickRound()
	if sh.rec.enabled() && r%10 == 0 {
		sh.pendingPeak = max(sh.pendingPeak, sh.sub.Pending())
	}
}

func (sh *sharded) progress() (ticks, delivered int64) {
	return int64(sh.sub.Counters().Ticks), int64(sh.sub.Traffic().Deliveries)
}

func (sh *sharded) check(c *checks) {
	sh.invariants(c)
	sh.scr.scrapeIdle()
}

// invariants is not timed, so a traced run uses it to record one span each of
// the calls a round never makes: CheckInvariants, Views, Counters, Traffic.
func (sh *sharded) invariants(c *checks) {
	if sh.rec != nil {
		sh.rec.on.Store(true)
		defer sh.rec.on.Store(false)
		sh.sub.Views()
		sh.sub.Counters()
		sh.sub.Traffic()
	}
	err := sh.sub.CheckInvariants()
	c.that("view invariants", err == nil, "%v", err)
}

// finish drains the delay queue and runs the end-of-run checks: conservation
// of the ledger, then the paper's predictions (S&F) or the evidence that the
// fault paths ran (push-pull).
func (sh *sharded) finish(c *checks, res *Result) {
	if sh.sc != nil {
		sh.sc.rejoinAll(sh.sub)
		c.that("churn script", sh.sc.err == nil, "%v", sh.sc.err)
	}
	t0 := time.Now()
	sh.sub.DrainDelayed()
	sh.drain = time.Since(t0)
	sh.invariants(c)

	t, n := sh.sub.Traffic(), sh.sub.Counters()
	c.that("ledger conserved after drain",
		t.Conserved() && sh.sub.Pending() == 0,
		"sends=%d losses=%d deliveries=%d dead_letters=%d pending=%d", t.Sends, t.Losses, t.Deliveries, t.DeadLetters, sh.sub.Pending())
	sh.final = sh.sub.Views()
	res.Ledger, res.Counters = t, n
	res.StateDigest = fmt.Sprintf("%016x", stateDigest(sh.final, t))

	if sh.spec.sfOracle {
		sh.checkSFOracle(c, n)
	} else {
		c.that("dead letters seen", t.DeadLetters > 0, "%d", t.DeadLetters)
		c.that("partition drops seen", t.PartitionDrops > 0, "%d", t.PartitionDrops)
		c.that("delayed messages seen", t.Delayed > 0, "%d", t.Delayed)
		live, largest := largestComponent(sh.final)
		c.that("largest component >= 99% of live nodes", float64(largest) >= 0.99*float64(live), "%d of %d", largest, live)
	}
}

// checkSFOracle holds the overlay against the degree Markov chain of Section
// 6: mean outdegree within 0.5 of the solved value, the duplication rate of
// the timed region inside the band of Lemmas 6.6 and 6.7 (loss <= dup <=
// loss + del, del from the same solve), and one weakly connected component.
func (sh *sharded) checkSFOracle(c *checks, n runtime.NodeCounters) {
	sol, err := degreemc.Solve(degreemc.Params{S: sfS, DL: sfDL, Loss: sfLoss}, degreemc.SolveOptions{})
	if err != nil {
		c.that("degree-MC solve", false, "%v", err)
		return
	}
	sum, live := 0, 0
	for _, v := range sh.final {
		if v != nil {
			sum += v.Outdegree()
			live++
		}
	}
	mean := float64(sum) / float64(live)
	c.that("mean outdegree within 0.5 of degree-MC", mean > sol.MeanOut()-0.5 && mean < sol.MeanOut()+0.5,
		"measured %.3f, predicted %.3f", mean, sol.MeanOut())

	sends := n.Sends - sh.base.Sends
	dup := float64(n.Duplications-sh.base.Duplications) / float64(sends)
	// The band is a statement about expectations; the slack is four
	// standard errors of a rate near the band's edge over this many sends.
	slack := 4 * math.Sqrt((sfLoss+sol.DelProb)/float64(sends))
	c.that("dup share inside Lemma 6.6/6.7 band", dup >= sfLoss-slack && dup <= sfLoss+sol.DelProb+slack,
		"measured %.5f over %d sends, band [%.5f, %.5f] +- %.5f", dup, sends, sfLoss, sfLoss+sol.DelProb, slack)

	comps := sh.sub.Snapshot().ComponentCount()
	c.that("one weakly connected component", comps == 1, "%d components", comps)
}

func (sh *sharded) scrapes() []float64 { return sh.scr.idleMS }

func (sh *sharded) ops() (attempted, failed int64) { return sh.scr.requests, sh.scr.failed }

func (sh *sharded) layers(spans []span, out map[string]Stat) {
	tick := durationsOf(spans, spTickRound, false, time.Millisecond)
	out["runtime.tick_ms_p50"] = dist("ms", tick, 0.5)
	out["runtime.tick_ms_p99"] = dist("ms", tick, 0.99)
	median := func(name, unit string, kind spanKind, per time.Duration) {
		d := durationsOf(spans, kind, false, per)
		out[name] = dist(unit, d, 0.5)
	}
	median("runtime.views_ms", "ms", spViews, time.Millisecond)
	median("runtime.check_invariants_ms", "ms", spCheckInvariants, time.Millisecond)
	median("runtime.counters_us", "us", spCounters, time.Microsecond)
	median("runtime.traffic_us", "us", spTraffic, time.Microsecond)
	median("runtime.addnode_us", "us", spAddNode, time.Microsecond)
	median("runtime.removenode_us", "us", spRemoveNode, time.Microsecond)
	out["runtime.drain_ms"] = scalar("ms", ms(sh.drain))
	out["driver.pending_peak"] = scalar("count", float64(sh.pendingPeak))

	// The same state ticked by one worker: the substrate is rebuilt with
	// Workers 1 (results do not depend on the worker count) and its last 200
	// warm-up rounds are timed.
	w1 := sh.o
	w1.workers, w1.wrap = 1, nil
	spec := sh.spec
	timed := min(200, spec.warm)
	spec.warm -= timed
	one, _, err := buildSharded(w1, spec, nil)
	if err != nil {
		return
	}
	defer one.close()
	var d []float64
	for i := 0; i < timed; i++ {
		t := time.Now()
		one.sub.TickRound()
		d = append(d, ms(time.Since(t)))
	}
	w1Tick := dist("ms", d, 0.5)
	out["runtime.tick_ms_p50_w1"] = w1Tick
	if p50 := out["runtime.tick_ms_p50"].Value; p50 > 0 {
		out["runtime.workers_scaling_eff"] = scalar("ratio", w1Tick.Value/(float64(gort.GOMAXPROCS(0))*p50))
	}
}

func (sh *sharded) replayState() ([]*view.View, protocol.BatchStepCore) {
	core, err := sh.spec.newCore()
	if err != nil {
		return sh.final, nil
	}
	bc, _ := core.(protocol.BatchStepCore)
	return sh.final, bc
}

func (sh *sharded) callsPerRound(res *Result) map[string]float64 {
	rounds := float64(res.WarmRounds + res.Rounds)
	n, t := res.Counters, res.Ledger
	return map[string]float64{
		"protocol.initiate_batch_ns": float64(n.Ticks) / rounds,
		"protocol.receive_batch_ns":  float64(n.Receives) / rounds,
		"driver.routein_pass_ns":     float64(t.Sends-t.Delayed) / rounds,
		"driver.routein_park_ns":     float64(t.Delayed) / rounds,
		"driver.due_pop_ns":          float64(t.Delayed) / rounds,
	}
}

func (sh *sharded) close() {
	sh.scr.close()
	sh.sub.Close()
}

func runShardedSF(o options) (*Result, error) {
	spec := shardedSpec{n: o.pick(2000, 100000), warm: o.pick(800, 300), proto: "sf", s: sfS, dl: sfDL, newCore: sfCore, loss: sfLoss, sfOracle: true}
	return drive(o, func(rec *recorder) (instance, setupInfo, error) { return buildSharded(o, spec, rec) })
}

func runPushPullFaults(o options) (*Result, error) {
	spec := shardedSpec{
		n: o.pick(1000, 50000), warm: 100, proto: "pushpull", s: pushpullS, newCore: pushpullCore,
		cond: burstJitterStack, churn: true,
	}
	return drive(o, func(rec *recorder) (instance, setupInfo, error) { return buildSharded(o, spec, rec) })
}

// burstJitterStack is the push-pull workload's fault stack: Gilbert-Elliott
// bursts at a 5% long-run loss rate, and a delivery delay of 0 to 2 rounds.
func burstJitterStack() (*faults.Conditions, error) {
	burst, err := loss.BurstyWithRate(0.05, 4)
	if err != nil {
		return nil, err
	}
	cond, err := faults.New(burst)
	if err != nil {
		return nil, err
	}
	return cond, cond.SetDelay(faults.Delay{Fixed: 0, Jitter: 2})
}

// evenOdd splits the ids 0..n-1 into the two sides of the partition.
func evenOdd(n int) (even, odd []peer.ID) {
	for u := 0; u < n; u++ {
		if u%2 == 0 {
			even = append(even, peer.ID(u))
		} else {
			odd = append(odd, peer.ID(u))
		}
	}
	return even, odd
}

// script is the churn and partition schedule of the push-pull workload. It
// repeats once per segment so that every segment does the same work: at round
// 0 of the period n/200 live nodes leave, from 1/5 to 3/10 of the period the
// even and the odd ids are partitioned, and at half the period the leavers
// rejoin with four seeds that were live when they left.
type script struct {
	n, period int
	r         *rng.RNG
	even, odd []peer.ID
	gone      []peer.ID
	seeds     [][]peer.ID
	mark      []bool
	err       error
}

func newScript(seed int64, n, period int) *script {
	sc := &script{n: n, period: period, r: rng.New(rng.DeriveSeed(seed, 0x5c71)), mark: make([]bool, n)}
	sc.even, sc.odd = evenOdd(n)
	return sc
}

// before runs the events scheduled ahead of timed round r's tick.
func (sc *script) before(r int, sub runtime.Substrate) {
	switch r % sc.period {
	case 0:
		sc.leave(sub)
	case sc.period / 5:
		sub.Conditions().Partition(sc.even, sc.odd)
	case sc.period * 3 / 10:
		sub.Conditions().Heal()
	case sc.period / 2:
		sc.rejoinAll(sub)
	}
}

// leave snapshots the views, picks n/200 live nodes and four live seeds for
// each, and removes the picked nodes.
func (sc *script) leave(sub runtime.Substrate) {
	views := sub.Views()
	liveUnmarked := func() peer.ID {
		for {
			u := sc.r.Intn(sc.n)
			if views[u] != nil && !sc.mark[u] {
				return peer.ID(u)
			}
		}
	}
	for i := 0; i < max(1, sc.n/200); i++ {
		u := liveUnmarked()
		sc.mark[u] = true
		sc.gone = append(sc.gone, u)
	}
	for range sc.gone {
		seeds := make([]peer.ID, 4)
		for k := range seeds {
			seeds[k] = liveUnmarked()
		}
		sc.seeds = append(sc.seeds, seeds)
	}
	for _, u := range sc.gone {
		sub.RemoveNode(u)
	}
}

// rejoinAll brings back every node that is away.
func (sc *script) rejoinAll(sub runtime.Substrate) {
	for i, u := range sc.gone {
		if err := sub.AddNode(u, sc.seeds[i], false); err != nil && sc.err == nil {
			sc.err = err
		}
		sc.mark[u] = false
	}
	sc.gone, sc.seeds = sc.gone[:0], sc.seeds[:0]
}

// largestComponent returns the number of live nodes and the size of the
// largest weakly connected component among them, by union-find over the view
// entries that point at live nodes.
func largestComponent(views []*view.View) (live, largest int) {
	parent := make([]int32, len(views))
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for u, v := range views {
		if v == nil {
			continue
		}
		live++
		for i := 0; i < v.Size(); i++ {
			w := v.Slot(i)
			if w == peer.Nil || int(w) >= len(views) || views[w] == nil {
				continue
			}
			if a, b := find(int32(u)), find(int32(w)); a != b {
				parent[a] = b
			}
		}
	}
	size := make(map[int32]int)
	for u, v := range views {
		if v != nil {
			root := find(int32(u))
			size[root]++
			if size[root] > largest {
				largest = size[root]
			}
		}
	}
	return live, largest
}
