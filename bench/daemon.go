package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"sendforget/internal/mgmt"
)

// daemon is the sfnode -local -engine sharded -mgmt composition, built the
// way cmd/sfnode/daemon.go builds it: a mgmt.Local over the substrate of the
// sharded-sf-100k workload and a management server on a loopback port. The
// driver calls Local.Tick back to back (the daemon's ticker would make
// throughput a function of -period, not of the code) and, once per segment,
// the daemon's status report (Local.Snapshot and ComponentCount).
//
// The scraper is open loop: one goroutine with one keep-alive connection
// issues GET /metrics 5 times a second and GET /view?id=k every 2 seconds on
// a fixed schedule, whether or not the previous reply has come back. Each
// request is timed from the moment it was due, so a stall counts against
// every request it delays, and how late the scraper ran is reported.
type daemon struct {
	*sharded

	start time.Time
	stop  chan struct{}
	wg    sync.WaitGroup

	// Written by the scraper goroutine (as are the request counts of scr),
	// read after end has joined it.
	samples    []scrapeSample
	lastRounds float64

	statusMS []float64
}

// scrapeSample is one request of the open-loop scraper.
type scrapeSample struct {
	kind      spanKind // spScrape or spViewByID
	latencyMS float64  // from due time to body read
	lateMS    float64  // from due time to the request being sent
}

// The scraper's schedule: GET /metrics on every even slot (5/s), GET
// /view?id=k on one odd slot in twenty (0.5/s). A /metrics handler takes the
// backend lock five times and waits up to a round for each, about 50 ms at
// n=100k, so this keeps the one connection under half busy; at 20/s it was
// saturated and the latency measured the backlog instead of the code.
const scrapeSlot = 100 * time.Millisecond

func runDaemonScrape(o options) (*Result, error) {
	spec := shardedSpec{n: o.pick(2000, 100000), warm: o.pick(800, 300), proto: "sf", s: sfS, dl: sfDL, newCore: sfCore, loss: sfLoss, sfOracle: true}
	return drive(o, func(rec *recorder) (instance, setupInfo, error) {
		sh, info, err := buildSharded(o, spec, rec)
		if err != nil {
			return nil, info, err
		}
		return &daemon{sharded: sh}, info, nil
	})
}

func (d *daemon) begin(start time.Time) {
	d.sharded.begin(start)
	d.start = start
	d.stop = make(chan struct{})
	d.wg.Add(1)
	go d.scrapeLoop()
}

func (d *daemon) end() {
	close(d.stop)
	d.wg.Wait()
}

// check leaves the scraping to the open-loop scraper.
func (d *daemon) check(c *checks) { d.invariants(c) }

func (d *daemon) round(r int) {
	if r%d.o.segRounds() == 0 {
		t := time.Now()
		id := uint32(0)
		if d.rec.enabled() {
			id = d.rec.begin(spStatus, d.rec.open)
		}
		_ = d.local.Snapshot().ComponentCount()
		d.rec.end(id)
		d.statusMS = append(d.statusMS, ms(time.Since(t)))
	}
	if d.rec.enabled() {
		id, prev := d.rec.enter(spLocalTick)
		d.local.Tick()
		d.rec.leave(id, prev)
		return
	}
	d.local.Tick()
}

func (d *daemon) scrapeLoop() {
	defer d.wg.Done()
	for i := 0; ; i++ {
		due := time.Duration(i) * scrapeSlot
		wait := time.NewTimer(time.Until(d.start.Add(due)))
		select {
		case <-d.stop:
			wait.Stop()
			return
		case <-wait.C:
		}
		switch {
		case i%2 == 0:
			d.request(spScrape, "/metrics", due)
		case i%20 == 1:
			d.request(spViewByID, fmt.Sprintf("/view?id=%d", i*7919%d.spec.n), due)
		}
	}
}

// request sends one scheduled request and checks its reply: every reply must
// parse, and sendforget_rounds_total must never go backwards.
func (d *daemon) request(kind spanKind, path string, due time.Duration) {
	sent := time.Since(d.start)
	id := uint32(0)
	if d.rec.enabled() {
		id = d.rec.begin(kind, 0)
	}
	body, err := d.scr.p.get(path)
	d.rec.end(id)
	done := time.Since(d.start)
	d.scr.requests++
	if err == nil {
		err = d.validate(kind, body)
	}
	if err != nil {
		d.scr.failed++
		return
	}
	d.samples = append(d.samples, scrapeSample{kind, ms(done - due), ms(sent - due)})
}

func (d *daemon) validate(kind spanKind, body []byte) error {
	if kind == spViewByID {
		var v struct {
			Views []mgmt.NodeView `json:"views"`
		}
		if err := json.Unmarshal(body, &v); err != nil {
			return err
		}
		if len(v.Views) != 1 {
			return fmt.Errorf("/view?id returned %d views", len(v.Views))
		}
		return nil
	}
	vals, err := promValues(body)
	if err != nil {
		return err
	}
	rounds, ok := vals["sendforget_rounds_total"]
	if !ok || rounds < d.lastRounds {
		return fmt.Errorf("sendforget_rounds_total %v after %v", rounds, d.lastRounds)
	}
	d.lastRounds = rounds
	return nil
}

// promValues parses Prometheus text exposition into name -> value.
func promValues(body []byte) (map[string]float64, error) {
	vals := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, value, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("malformed sample %q", line)
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			return nil, fmt.Errorf("malformed sample %q: %w", line, err)
		}
		vals[name] = v
	}
	return vals, sc.Err()
}

// finish drains through the daemon's own shutdown path, runs the substrate
// checks, and then holds a final scrape against Substrate.Traffic field for
// field.
func (d *daemon) finish(c *checks, res *Result) {
	err := d.local.Drain()
	c.that("Local.Drain", err == nil, "%v", err)
	d.sharded.finish(c, res)

	d.scr.requests++
	body, err := d.scr.p.get("/metrics")
	var vals map[string]float64
	if err == nil {
		vals, err = promValues(body)
	}
	if err != nil {
		d.scr.failed++
		c.that("final scrape equals Traffic()", false, "%v", err)
		return
	}
	t := d.sub.Traffic()
	want := map[string]int{
		"sends": t.Sends, "losses": t.Losses, "deliveries": t.Deliveries, "dead_letters": t.DeadLetters,
		"link_losses": t.LinkLosses, "partition_drops": t.PartitionDrops, "delayed": t.Delayed,
	}
	var diff []string
	for _, field := range []string{"sends", "losses", "deliveries", "dead_letters", "link_losses", "partition_drops", "delayed"} {
		if got := vals["sendforget_traffic_"+field+"_total"]; got != float64(want[field]) {
			diff = append(diff, fmt.Sprintf("%s: scraped %v, ledger %d", field, got, want[field]))
		}
	}
	c.that("final scrape equals Traffic()", len(diff) == 0, "%s", strings.Join(diff, "; "))
}

// scrapes returns the latencies of the open-loop scraper's GET /metrics.
func (d *daemon) scrapes() []float64 {
	var out []float64
	for _, s := range d.samples {
		if s.kind == spScrape {
			out = append(out, s.latencyMS)
		}
	}
	return out
}

func (d *daemon) layers(spans []span, out map[string]Stat) {
	d.sharded.layers(spans, out)
	var scrape, view, late []float64
	for _, s := range d.samples {
		if s.kind == spScrape {
			scrape = append(scrape, s.latencyMS)
		} else {
			view = append(view, s.latencyMS)
		}
		late = append(late, s.lateMS)
	}
	out["mgmt.scrape_ms_p95"] = dist("ms", scrape, 0.95)
	out["mgmt.view_by_id_ms_p50"] = dist("ms", view, 0.5)
	out["mgmt.scraper_late_ms_p95"] = dist("ms", late, 0.95)
	out["mgmt.status_snapshot_ms"] = Stat{Value: percentile(d.statusMS, 0.5), Unit: "ms", N: len(d.statusMS)}
	wait := durationsOf(spans, spLocalTick, true, time.Millisecond)
	out["mgmt.tick_lock_wait_ms_p50"] = dist("ms", wait, 0.5)

	// The same requests with ticking paused: handler and HTTP cost alone.
	idle, f1 := d.scr.p.timedGets("/metrics", 50, time.Microsecond)
	health, f2 := d.scr.p.timedGets("/health", 50, time.Microsecond)
	d.scr.requests += 100
	d.scr.failed += f1 + f2
	out["mgmt.scrape_idle_us_p50"] = dist("us", idle, 0.5)
	out["mgmt.health_us_p50"] = dist("us", health, 0.5)
	if contended := percentile(scrape, 0.5); contended > 0 {
		out["mgmt.scrape_lock_wait_share"] = scalar("ratio", 1-percentile(idle, 0.5)/1000/contended)
	}
	out["mgmt.http_failed"] = scalar("count", float64(d.scr.failed))
}
