package main

// metricDef declares one metric the benchmark emits. BENCHMARK.json at the
// repository root lists exactly these names and units; bench_test.go
// keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the old median it may worsen by
}

// endToEnd is what a user of the system sees. Every workload reports every
// one of them; times are in seconds of a host in its nominal state (probe.go);
// the bounds come from the A/A calibration in AA.md.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"node_ticks_per_s", "1/s", "higher", 0.25},
	{"delivered_msgs_per_s", "1/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// failedOpsShare is the last end-to-end figure. It is 0 on a healthy
// run, and a metric whose median is 0 has no relative bound, so it travels
// in the attempted/failed fields of the result line instead of the metric
// list; -compare fails on any increase.
const failedOpsShare = "failed_ops_share"

// perLayer is printed by a traced run. A workload that never enters a layer
// reports 0 for that layer's span metrics; the replay metrics are measured
// over whatever views the workload ended with.
var perLayer = []metricDef{
	// ISSUE 11 lists these two as end-to-end and says that a metric which
	// cannot hold its bound moves here. Neither can on a shared host: they
	// are medians, and a median moves with every burst of a neighbour.
	{Name: "round_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "scrape_ms_p50", Unit: "ms", Better: "lower"},

	{Name: "runtime.tick_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "runtime.tick_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "runtime.tick_ms_p50_w1", Unit: "ms", Better: "lower"},
	{Name: "runtime.workers_scaling_eff", Unit: "ratio", Better: "higher"},
	{Name: "runtime.allocs_per_round", Unit: "count", Better: "lower"},
	{Name: "runtime.bytes_per_round", Unit: "B", Better: "lower"},
	{Name: "runtime.gc_pause_ms_total", Unit: "ms", Better: "lower"},
	{Name: "runtime.views_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.check_invariants_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.counters_us", Unit: "us", Better: "lower"},
	{Name: "runtime.traffic_us", Unit: "us", Better: "lower"},
	{Name: "runtime.addnode_us", Unit: "us", Better: "lower"},
	{Name: "runtime.removenode_us", Unit: "us", Better: "lower"},
	{Name: "runtime.drain_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.node_tick_us", Unit: "us", Better: "lower"},
	{Name: "runtime.node_handle_us", Unit: "us", Better: "lower"},
	{Name: "runtime.construct_s", Unit: "s", Better: "lower"},
	{Name: "runtime.warmup_s", Unit: "s", Better: "lower"},

	{Name: "protocol.initiate_batch_ns", Unit: "ns", Better: "lower"},
	{Name: "protocol.receive_batch_ns", Unit: "ns", Better: "lower"},
	{Name: "protocol.outbox_append_ns", Unit: "ns", Better: "lower"},
	{Name: "protocol.msgs_per_tick", Unit: "ratio", Better: "lower"},
	{Name: "protocol.replies_per_tick", Unit: "ratio", Better: "lower"},
	{Name: "protocol.selfloop_share", Unit: "ratio", Better: "lower"},
	{Name: "protocol.dup_share", Unit: "ratio", Better: "lower"},

	{Name: "view.random_pair_fast_ns", Unit: "ns", Better: "lower"},
	{Name: "view.clear_fill_pair_ns", Unit: "ns", Better: "lower"},
	{Name: "view.random_occupied_slot_ns", Unit: "ns", Better: "lower"},
	{Name: "view.replace_random_occupied_ns", Unit: "ns", Better: "lower"},

	{Name: "rng.fastpair_ns", Unit: "ns", Better: "lower"},
	{Name: "rng.bernoulli_ns", Unit: "ns", Better: "lower"},
	{Name: "rng.derive_seed_ns", Unit: "ns", Better: "lower"},

	{Name: "faults.decide_uniform_ns", Unit: "ns", Better: "lower"},
	{Name: "faults.decide_burst_jitter_ns", Unit: "ns", Better: "lower"},
	{Name: "faults.decide_partitioned_ns", Unit: "ns", Better: "lower"},

	{Name: "driver.routein_pass_ns", Unit: "ns", Better: "lower"},
	{Name: "driver.routein_park_ns", Unit: "ns", Better: "lower"},
	{Name: "driver.due_pop_ns", Unit: "ns", Better: "lower"},
	{Name: "driver.park_allocs_per_msg", Unit: "count", Better: "lower"},
	{Name: "driver.delivered_share", Unit: "ratio", Better: "higher"},
	{Name: "driver.loss_share", Unit: "ratio", Better: "lower"},
	{Name: "driver.parked_share", Unit: "ratio", Better: "lower"},
	{Name: "driver.dead_letter_share", Unit: "ratio", Better: "lower"},
	{Name: "driver.pending_peak", Unit: "count", Better: "lower"},

	{Name: "transport.marshal_ns", Unit: "ns", Better: "lower"},
	{Name: "transport.unmarshal_ns", Unit: "ns", Better: "lower"},
	{Name: "transport.marshal_addressed_ns", Unit: "ns", Better: "lower"},
	{Name: "transport.unmarshal_addressed_ns", Unit: "ns", Better: "lower"},
	{Name: "transport.appendflat_ns", Unit: "ns", Better: "lower"},
	{Name: "transport.unmarshalflat_ns", Unit: "ns", Better: "lower"},
	{Name: "transport.codec_allocs_per_msg", Unit: "count", Better: "lower"},
	{Name: "transport.inmem_send_ns", Unit: "ns", Better: "lower"},
	{Name: "transport.udp_send_us", Unit: "us", Better: "lower"},
	{Name: "transport.udp_rtt_us_p50", Unit: "us", Better: "lower"},
	{Name: "transport.udp_undelivered_share", Unit: "ratio", Better: "lower"},
	{Name: "transport.udp_noroute_share", Unit: "ratio", Better: "lower"},
	{Name: "transport.udp_decode_errors", Unit: "count", Better: "lower"},

	{Name: "mgmt.scrape_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "mgmt.scrape_idle_us_p50", Unit: "us", Better: "lower"},
	{Name: "mgmt.scrape_lock_wait_share", Unit: "ratio", Better: "lower"},
	{Name: "mgmt.view_by_id_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "mgmt.health_us_p50", Unit: "us", Better: "lower"},
	{Name: "mgmt.tick_lock_wait_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "mgmt.status_snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "mgmt.scraper_late_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "mgmt.http_failed", Unit: "count", Better: "lower"},

	{Name: "metrics.writeprom_us", Unit: "us", Better: "lower"},
	{Name: "graph.from_views_ms", Unit: "ms", Better: "lower"},
	{Name: "graph.component_count_ms", Unit: "ms", Better: "lower"},

	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.spans", Unit: "count", Better: "lower"},
}

// workloadDef names a workload; BENCHMARK.json and README.md say why each is
// in the set.
type workloadDef struct {
	Name string
	// SegRounds is the number of rounds in one segment: the scripted events
	// of a workload (churn cycle, partition, status report, invariant check)
	// happen once per segment, so every segment does the same work.
	SegRounds, SmokeSegRounds int
	// Period divides SegRounds: the number of rounds after which the work
	// repeats closely enough for quietSeconds to compare one period's time
	// with another's. Every round of the two S&F sharded workloads does the
	// same work (and one estimator for both keeps their ratio, the management
	// overhead, meaningful); a period of udp-loopback-64 is long enough to
	// even out how many of the 64 nodes send in a round; the push-pull script
	// repeats once per segment, and its rounds differ, so they are compared
	// position by position.
	Period     int
	ByPosition bool
	run        func(o options) (*Result, error)
}

var workloads = []workloadDef{
	{Name: "sharded-sf-100k", SegRounds: 200, SmokeSegRounds: 10, Period: 1, run: runShardedSF},
	{Name: "sharded-pushpull-faults-50k", SegRounds: 50, SmokeSegRounds: 10, Period: 50, ByPosition: true, run: runPushPullFaults},
	{Name: "daemon-scrape-100k", SegRounds: 200, SmokeSegRounds: 10, Period: 1, run: runDaemonScrape},
	{Name: "udp-loopback-64", SegRounds: 2500, SmokeSegRounds: 10, Period: 50, run: runUDPLoopback},
}

func workloadByName(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}
