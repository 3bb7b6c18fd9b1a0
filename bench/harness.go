package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	gort "runtime"
	"strconv"
	"strings"
	"time"

	"sendforget/internal/metrics"
	"sendforget/internal/mgmt"
	"sendforget/internal/protocol"
	"sendforget/internal/runtime"
	"sendforget/internal/view"
)

// processStart is read as early as a Go program can read the clock: the
// first set-up of a run is timed from here, so it includes process start.
var processStart = time.Now()

// options is one run's configuration.
type options struct {
	def     *workloadDef
	seed    int64
	seconds float64 // > 0: run whole segments until this much time is used
	rounds  int     // else: this many timed rounds (0 = ten segments)
	smoke   bool
	trace   bool
	workers int // sharded worker pool; 0 = GOMAXPROCS
	setups  int // how many times set-up is repeated and timed
	outDir  string
	// wrap, when set, decorates the substrate of the sharded workloads. The
	// tests plant faults through it.
	wrap func(runtime.Substrate) runtime.Substrate
}

func (o options) segRounds() int {
	if o.smoke {
		return o.def.SmokeSegRounds
	}
	return o.def.SegRounds
}

// period is the number of rounds after which the workload's work repeats; a
// smoke segment is one period.
func (o options) period() int {
	if o.smoke {
		return o.def.SmokeSegRounds
	}
	return o.def.Period
}

// pick returns the smoke size or the full size.
func (o options) pick(smoke, full int) int {
	if o.smoke {
		return smoke
	}
	return full
}

// Header records where and when a result was measured.
type Header struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
	Start      string `json:"start_time"`
}

func newHeader() Header {
	h := Header{
		Commit:     "unknown",
		GoVersion:  gort.Version(),
		GOMAXPROCS: gort.GOMAXPROCS(0),
		NProc:      gort.NumCPU(),
		CPU:        "unknown",
		Kernel:     "unknown",
		Start:      processStart.UTC().Format(time.RFC3339),
	}
	// A checkout that is not a git repository has no commit; the ceiling
	// keeps git from looking for one above the repository root.
	if wd, err := os.Getwd(); err == nil {
		root := wd
		if outDir() == "out" { // running from inside bench/
			root = filepath.Dir(wd)
		}
		cmd := exec.Command("git", "rev-parse", "HEAD")
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(root))
		if out, err := cmd.Output(); err == nil {
			h.Commit = strings.TrimSpace(string(out))
		}
	}
	if v := procField("/proc/cpuinfo", "model name"); v != "" {
		h.CPU = v
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	return h
}

// procField returns the value of the first "key : value" line of a /proc
// file, or "".
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	kb, err := strconv.ParseFloat(strings.TrimSuffix(procField("/proc/self/status", "VmHWM"), " kB"), 64)
	if err != nil {
		return 0
	}
	return kb / 1024
}

// Check is one correctness check and whether it held.
type Check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// checks collects the correctness checks of a run. A check made more than
// once (the per-segment invariant check) is listed once and fails if any
// instance failed; every failed instance is a failed operation.
type checks struct {
	list   []Check
	failed int64
}

func (c *checks) that(name string, ok bool, format string, args ...any) {
	detail := fmt.Sprintf(format, args...)
	if !ok {
		c.failed++
	}
	for i := range c.list {
		if c.list[i].Name == name {
			if !ok && c.list[i].OK {
				c.list[i].OK, c.list[i].Detail = false, detail
			}
			return
		}
	}
	c.list = append(c.list, Check{name, ok, detail})
}

// Result is what one run of one workload reports.
type Result struct {
	Header     Header `json:"header"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Smoke      bool   `json:"smoke"`
	Traced     bool   `json:"traced"`
	Nodes      int    `json:"nodes"`
	WarmRounds int    `json:"warmup_rounds"`
	Rounds     int    `json:"timed_rounds"`
	Segments   int    `json:"segments"`

	// HostSlowdown is how much slower than nominal the host probe ran during
	// the timed region of this run: the quiet quartile of its calls, with the
	// quartiles of all of them beside it. The end-to-end rates are multiplied
	// by it (probe.go).
	HostSlowdown Stat `json:"host_slowdown"`

	Attempted      int64   `json:"attempted"`
	Failed         int64   `json:"failed"`
	FailedOpsShare float64 `json:"failed_ops_share"`
	Checks         []Check `json:"checks"`

	// Metrics holds the end-to-end metrics of an untraced run or the
	// per-layer metrics of a traced one.
	Metrics map[string]Stat `json:"metrics"`
	// ReplayShare estimates, per layer, calls per round times replayed cost
	// per call as a share of round_ms_p50. The shares are estimates made on
	// one thread and need not sum to 1.
	ReplayShare map[string]float64 `json:"replay_share_of_round,omitempty"`

	Ledger      metrics.Traffic      `json:"ledger"`
	Counters    runtime.NodeCounters `json:"counters"`
	StateDigest string               `json:"state_digest"`
	Notes       []string             `json:"notes,omitempty"`
}

func (r *Result) correct() bool { return r.Failed == 0 }

// instance is one set-up workload. drive owns the order of calls; all but
// the scraper's own goroutine happen on the driver goroutine.
type instance interface {
	// begin and end bracket the timed region (the daemon workload runs its
	// open-loop scraper between them).
	begin(start time.Time)
	end()
	// round does everything scheduled for timed round r.
	round(r int)
	// progress returns the running totals of initiate actions and delivered
	// messages.
	progress() (ticks, delivered int64)
	// check runs the per-segment invariant check; it is not timed.
	check(c *checks)
	// finish drains what is in flight, runs the end-of-run checks and
	// records ledger, counters and digest.
	finish(c *checks, res *Result)
	// scrapes returns the run's GET /metrics latencies in wall-clock ms.
	scrapes() []float64
	// ops returns the operations attempted beyond initiate actions and the
	// operations failed beyond failed checks.
	ops() (attempted, failed int64)
	// layers fills in the per-layer metrics only this workload can measure.
	layers(spans []span, out map[string]Stat)
	// replayState returns the views and a fresh step core for the layer
	// replay.
	replayState() ([]*view.View, protocol.BatchStepCore)
	// callsPerRound says how often one round calls each replayed function
	// (keyed by the per-layer metric that times it), from the run's ledgers.
	callsPerRound(res *Result) map[string]float64
	close()
}

// setupInfo splits one set-up into construction and warm-up.
type setupInfo struct {
	nodes, warmRounds int
	construct, warmup time.Duration
}

// segment is one slice of the timed region: the same number of rounds and
// the same scripted events as every other segment of the run.
type segment struct {
	ticks, delivered int64
	rounds           []time.Duration
}

// maxSegments bounds a run so that the per-round record is allocated once,
// before timing starts.
const maxSegments = 64

// limit ends a phase after a number of segments or, when seconds is set,
// once another segment would overshoot the time budget by more than half.
type limit struct {
	segments int
	seconds  float64
}

// traceBlock is the number of consecutive rounds a traced phase records
// before it leaves as many unrecorded: the two kinds of round alternate within
// one phase, so that the machine's drift cancels out of their comparison.
const traceBlock = 10

// tracedRound reports whether the i-th round of a traced phase is recorded.
func tracedRound(i int) bool { return (i/traceBlock)%2 == 0 }

// heapDelta accumulates what the rounds of a phase cost the allocator,
// leaving out what the harness itself allocates between segments.
type heapDelta struct{ mallocs, bytes, pauseNS uint64 }

// phase is one stretch of timed rounds.
type phase struct {
	inst      instance
	first     int // number of the first round
	segRounds int
	lim       limit
	c         *checks
	rec       *recorder  // set: record spans on alternate blocks of rounds
	heap      *heapDelta // set: account heap activity of the round loops
	probe     *hostProbe // set: call the host probe between rounds, every probeGap
}

// run measures whole segments. A traced phase also ends, mid-segment, when
// the span slab is full.
func (p phase) run() []segment {
	dur := make([]time.Duration, 0, maxSegments*p.segRounds)
	var segs []segment
	var before, after gort.MemStats
	phaseStart := time.Now()
	for s := 0; s < maxSegments; s++ {
		var seg segment
		t0, d0 := p.inst.progress()
		lo := len(dur)
		if p.heap != nil {
			gort.ReadMemStats(&before)
		}
		for i := 0; i < p.segRounds; i++ {
			n := s*p.segRounds + i
			r := p.first + n
			if p.rec != nil && tracedRound(n) {
				if p.rec.full(1024) {
					break
				}
				p.rec.round.Store(int32(r))
				p.rec.on.Store(true)
				t := time.Now()
				id, prev := p.rec.enter(spRound)
				p.inst.round(r)
				p.rec.leave(id, prev)
				dur = append(dur, time.Since(t))
				p.rec.on.Store(false)
				continue
			}
			t := time.Now()
			p.inst.round(r)
			end := time.Now()
			dur = append(dur, end.Sub(t))
			if p.probe != nil && end.Sub(p.probe.last) >= probeGap {
				p.probe.run()
			}
		}
		if p.heap != nil {
			gort.ReadMemStats(&after)
			p.heap.mallocs += after.Mallocs - before.Mallocs
			p.heap.bytes += after.TotalAlloc - before.TotalAlloc
			p.heap.pauseNS += after.PauseTotalNs - before.PauseTotalNs
		}
		t1, d1 := p.inst.progress()
		seg.rounds = dur[lo:]
		seg.ticks, seg.delivered = t1-t0, d1-d0
		segs = append(segs, seg)
		p.inst.check(p.c)
		if len(seg.rounds) < p.segRounds {
			break
		}
		if p.lim.seconds > 0 {
			used := time.Since(phaseStart).Seconds()
			if used+used/float64(s+1)/2 > p.lim.seconds {
				break
			}
		} else if s+1 >= p.lim.segments {
			break
		}
	}
	return segs
}

func totalRounds(segs []segment) int {
	n := 0
	for _, s := range segs {
		n += len(s.rounds)
	}
	return n
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// roundMS flattens the round durations of segs into milliseconds.
func roundMS(segs []segment) []float64 {
	var out []float64
	for _, s := range segs {
		for _, d := range s.rounds {
			out = append(out, ms(d))
		}
	}
	return out
}

// quietQuantile is the share of the timed stretches, fastest first, that the
// end-to-end rates are read from. What a neighbour on the host does to a run
// comes in bursts that slow some rounds and leave others alone, and it only
// ever adds time: the fast quarter of the rounds is what the program costs,
// the rest is what the host added that minute (AA.md).
const quietQuantile = 0.25

// quietSeconds estimates what one period of the workload takes while the
// host leaves it alone. The rounds of a period are timed as one stretch, or,
// when the period is a script whose rounds differ (byPosition), each on its
// own; the stretches at the same position of every period did the same work,
// and the estimate is the sum over the positions of their quiet quantile.
func quietSeconds(segs []segment, period int, byPosition bool) float64 {
	width := period
	if byPosition {
		width = 1
	}
	samples := make([][]float64, period/width)
	for _, s := range segs {
		for i := 0; i+width <= len(s.rounds); i += width {
			var d time.Duration
			for _, r := range s.rounds[i : i+width] {
				d += r
			}
			at := i % period / width
			samples[at] = append(samples[at], d.Seconds())
		}
	}
	sum := 0.0
	for _, xs := range samples {
		sum += percentile(xs, quietQuantile)
	}
	return sum
}

// endToEndMetrics turns an untraced run into the declared end-to-end metrics.
// The rates are the work of an average period over the quiet time of one, in
// calibrated seconds; setupS is calibrated already.
func endToEndMetrics(o options, segs []segment, setupS []float64, slowdown float64) map[string]Stat {
	var ticks, delivered int64
	for _, s := range segs {
		ticks += s.ticks
		delivered += s.delivered
	}
	periods := float64(totalRounds(segs)) / float64(o.period())
	quiet := quietSeconds(segs, o.period(), o.def.ByPosition) / slowdown
	return map[string]Stat{
		"setup_s":              statOf("s", setupS),
		"node_ticks_per_s":     scalar("1/s", float64(ticks)/periods/quiet),
		"delivered_msgs_per_s": scalar("1/s", float64(delivered)/periods/quiet),
		"peak_rss_mb":          scalar("MB", peakRSSMB()),
	}
}

// setupProbes is the number of probe calls before and after each set-up.
const setupProbes = 4

// drive runs one workload: set-up (repeated, each one timed), the timed
// region, the end-of-run checks, and either the end-to-end metrics or, for a
// traced run, the per-layer ones.
func drive(o options, build func(rec *recorder) (instance, setupInfo, error)) (*Result, error) {
	res := &Result{Workload: o.def.Name, Seed: o.seed, Smoke: o.smoke, Traced: o.trace}
	var rec *recorder
	if o.trace {
		rec = newRecorder()
		o.setups = 1
	}
	sinceStart := time.Since(processStart) // the first set-up pays for process start
	pr := newHostProbe(uint64(o.pick(probeSteps/20, probeSteps)))
	var (
		inst   instance
		info   setupInfo
		setupS []float64 // calibrated seconds
	)
	// A set-up is one stretch of time, bursts and all, so it is divided by
	// the mean of the probe calls around it.
	for i := 0; i < setupProbes; i++ {
		pr.run()
	}
	for i := 0; i < o.setups; i++ {
		if inst != nil {
			inst.close()
			gort.GC()
		}
		t0 := time.Now()
		var err error
		if inst, info, err = build(rec); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", o.def.Name, err)
		}
		took := time.Since(t0)
		if i == 0 {
			took += sinceStart
		}
		before := pr.take()
		for k := 0; k < setupProbes; k++ {
			pr.run()
		}
		setupS = append(setupS, took.Seconds()/meanSlowdown(append(before, pr.nsPerStep...)))
	}
	pr.take()
	defer inst.close()
	res.Nodes, res.WarmRounds = info.nodes, info.warmRounds

	lim := limit{segments: 10, seconds: o.seconds}
	if o.rounds > 0 {
		lim.segments = max(1, o.rounds/o.segRounds())
	}
	c := &checks{}
	start := time.Now()
	inst.begin(start)
	ph := phase{inst: inst, segRounds: o.segRounds(), lim: lim, c: c}
	var segs []segment
	if !o.trace {
		ph.probe = pr
		pr.run() // a run shorter than probeGap still has its sample
		segs = ph.run()
		inst.end()
		res.Rounds, res.Segments = totalRounds(segs), len(segs)
		inst.finish(c, res)
		calls := pr.take()
		slowdown := quietSlowdown(calls)
		res.Metrics = endToEndMetrics(o, segs, setupS, slowdown)
		for i := range calls {
			calls[i] /= probeNominalNS
		}
		res.HostSlowdown = dist("ratio", calls, quietQuantile)
	} else {
		// A traced run spends a quarter of its budget on an untraced phase
		// that accounts the heap, a quarter on the traced phase (one segment
		// each when rounds are fixed), and the rest on the layer replay.
		var heap heapDelta
		ph.lim, ph.heap = limit{segments: 1, seconds: o.seconds / 4}, &heap
		plain := ph.run()
		ph.first, ph.heap, ph.rec = totalRounds(plain), nil, rec
		traced := ph.run()
		inst.end()
		segs = append(plain, traced...)
		res.Rounds, res.Segments = totalRounds(segs), len(segs)
		inst.finish(c, res)
		if err := perLayerMetrics(o, inst, res, info, rec, heap, plain, traced); err != nil {
			return nil, err
		}
	}

	var ticks int64
	for _, s := range segs {
		ticks += s.ticks
	}
	extra, failedOps := inst.ops()
	res.Attempted = ticks + extra
	res.Failed = c.failed + failedOps
	res.FailedOpsShare = float64(res.Failed) / float64(max(res.Attempted, 1))
	res.Checks = c.list
	res.Header = newHeader()
	return res, nil
}

// perLayerMetrics fills res.Metrics with every declared per-layer metric (0
// where this workload has nothing to say) and writes the trace.
func perLayerMetrics(o options, inst instance, res *Result, info setupInfo, rec *recorder, heap heapDelta, plain, traced []segment) error {
	out := make(map[string]Stat, len(perLayer))
	for _, m := range perLayer {
		out[m.Name] = scalar(m.Unit, 0)
	}
	rounds := float64(totalRounds(plain))
	out["runtime.allocs_per_round"] = scalar("count", float64(heap.mallocs)/rounds)
	out["runtime.bytes_per_round"] = scalar("B", float64(heap.bytes)/rounds)
	out["runtime.gc_pause_ms_total"] = scalar("ms", float64(heap.pauseNS)/1e6)
	out["runtime.construct_s"] = scalar("s", info.construct.Seconds())
	out["runtime.warmup_s"] = scalar("s", info.warmup.Seconds())

	// Recorded and unrecorded rounds alternated within the traced phase; the
	// ratio of their median durations is the throughput recording costs.
	var on, off []float64
	for i, d := range roundMS(traced) {
		if tracedRound(i) {
			on = append(on, d)
		} else {
			off = append(off, d)
		}
	}
	if len(on) > 0 && len(off) > 0 {
		out["trace.overhead_share"] = scalar("ratio", 1-percentile(off, 0.5)/percentile(on, 0.5))
	}
	spans, dropped := rec.recorded()
	out["trace.spans"] = scalar("count", float64(len(spans)))
	if dropped > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf("trace slab full: %d spans dropped", dropped))
	}

	// The two figures that were too unsteady on a shared host to be held to
	// a bound (AA.md): raw wall-clock medians, of the rounds of the untraced
	// phase and of all the run's scrapes.
	out["round_ms_p50"] = dist("ms", roundMS(plain), 0.5)
	out["scrape_ms_p50"] = dist("ms", inst.scrapes(), 0.5)

	ledgerShares(res, out)
	inst.layers(spans, out)
	views, core := inst.replayState()
	replayLayers(views, core, o.seed, o.smoke, out)
	res.ReplayShare = make(map[string]float64)
	roundNS := percentile(roundMS(plain), 0.5) * 1e6
	for name, calls := range inst.callsPerRound(res) {
		res.ReplayShare[name] = calls * out[name].Value / roundNS
	}
	res.Metrics = out

	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(o.outDir, "trace-"+o.def.Name+".jsonl")
	if err := writeTrace(path, o.def.Name, spans); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	res.Notes = append(res.Notes, "spans written to "+path)
	return nil
}

// ledgerShares derives the exact-count layer metrics from the run's ledgers.
// They repeat exactly for a fixed seed and round count: a change in one is a
// change of behaviour, not of speed.
func ledgerShares(res *Result, out map[string]Stat) {
	ratio := func(a, b int) Stat {
		if b == 0 {
			return scalar("ratio", 0)
		}
		return scalar("ratio", float64(a)/float64(b))
	}
	n, t := res.Counters, res.Ledger
	out["protocol.msgs_per_tick"] = ratio(n.Sends, n.Ticks)
	out["protocol.replies_per_tick"] = ratio(n.Replies, n.Ticks)
	out["protocol.selfloop_share"] = ratio(n.SelfLoops, n.Ticks)
	out["protocol.dup_share"] = ratio(n.Duplications, n.Sends)
	out["driver.delivered_share"] = ratio(t.Deliveries, t.Sends)
	out["driver.loss_share"] = ratio(t.Losses, t.Sends)
	out["driver.parked_share"] = ratio(t.Delayed, t.Sends)
	out["driver.dead_letter_share"] = ratio(t.DeadLetters, t.Sends)
}

// probe is an HTTP client bound to one management server. One keep-alive
// connection carries all its requests, as one Prometheus scraper's would.
type probe struct {
	client *http.Client
	base   string
}

func newProbe(addr string) *probe {
	return &probe{
		client: &http.Client{
			Timeout:   time.Second,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		},
		base: "http://" + addr,
	}
}

// get fetches path and reads the whole body. A reply that is not 200, or
// that takes longer than the client's one-second timeout, is an error.
func (p *probe) get(path string) ([]byte, error) {
	resp, err := p.client.Get(p.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return body, nil
}

func (p *probe) close() { p.client.CloseIdleConnections() }

// timedGets issues n sequential requests and returns their latencies in the
// given unit, plus how many failed.
func (p *probe) timedGets(path string, n int, unit time.Duration) (lat []float64, failed int64) {
	for i := 0; i < n; i++ {
		t := time.Now()
		if _, err := p.get(path); err != nil {
			failed++
			continue
		}
		lat = append(lat, float64(time.Since(t))/float64(unit))
	}
	return lat, failed
}

// serve starts a management server over b on a free loopback port.
func serve(b mgmt.Backend) (*mgmt.Server, error) {
	srv, err := mgmt.New(mgmt.Options{Addr: "127.0.0.1:0", Backend: b})
	if err != nil {
		return nil, err
	}
	if err := srv.Start(); err != nil {
		return nil, err
	}
	return srv, nil
}

func shutdown(srv *mgmt.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_ = srv.Shutdown(ctx) // a handler still running after 2 s is abandoned; the listener is closed either way
}

// scraper is a management server over a workload's backend and the one
// client that scrapes it. The workloads without a scraper of their own issue
// a batch of requests after each segment, while nothing else runs: that is
// their scrape_ms_p50, the cost of the handler and the HTTP exchange alone.
type scraper struct {
	srv              *mgmt.Server
	p                *probe
	idleMS           []float64 // GET /metrics latencies
	requests, failed int64
}

// idleBatch is the number of requests after each segment.
const idleBatch = 30

func newScraper(b mgmt.Backend) (*scraper, error) {
	srv, err := serve(b)
	if err != nil {
		return nil, err
	}
	return &scraper{srv: srv, p: newProbe(srv.Addr())}, nil
}

// scrapeIdle records one segment's batch of idle scrapes.
func (s *scraper) scrapeIdle() {
	lat, failed := s.p.timedGets("/metrics", idleBatch, time.Millisecond)
	s.idleMS = append(s.idleMS, lat...)
	s.requests += idleBatch
	s.failed += failed
}

func (s *scraper) close() {
	s.p.close()
	shutdown(s.srv)
}
