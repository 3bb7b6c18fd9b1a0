// Command sfnode runs a gossip membership daemon. In its primary mode it is
// a single real node over UDP — the protocols need nothing but
// fire-and-forget datagrams (plus, for the request/reply baselines,
// fire-and-forget replies), the paper's practicality claim. The -protocol
// flag selects the same protocol set the sfsim simulator offers; all of them
// run on the same runtime node.
//
// Start a small S&F cluster on localhost:
//
//	sfnode -id 0 -listen 127.0.0.1:7000 -peers 1=127.0.0.1:7001,2=127.0.0.1:7002 -seeds 1,2
//	sfnode -id 1 -listen 127.0.0.1:7001 -peers 0=127.0.0.1:7000,2=127.0.0.1:7002 -seeds 0,2
//	sfnode -id 2 -listen 127.0.0.1:7002 -peers 0=127.0.0.1:7000,1=127.0.0.1:7001 -seeds 0,1
//
// Each node logs its view once per report interval. Stop with Ctrl-C
// (SIGINT/SIGTERM trigger a graceful teardown); leaving needs no protocol
// action (Section 5).
//
// -mgmt addr serves a management API and Prometheus /metrics next to the
// gossip loop: GET /health, /view, /config, /metrics; POST /join, /leave,
// /config (live reload). A bare POST /leave drains the daemon and shuts it
// down. -pprof adds net/http/pprof's profiles under /debug/pprof/ on the
// same listener. See README.md ("Management API").
//
// Alternatively, -local n runs an in-process n-node cluster on the selected
// execution backend (-engine seq|cluster|sharded), ticking one synchronous
// round per -period and reporting overlay health — a one-command demo of any
// protocol on any substrate, no sockets involved. The same management API
// attaches to it, managing the whole cluster instead of one node:
//
//	sfnode -local 1000 -engine sharded -protocol shuffle -loss 0.02 -mgmt 127.0.0.1:8700
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"sendforget/internal/mgmt"
	"sendforget/internal/peer"
	"sendforget/internal/protocol"
	"sendforget/internal/protocol/flipper"
	"sendforget/internal/protocol/pushpull"
	"sendforget/internal/protocol/sendforget"
	"sendforget/internal/protocol/sfopt"
	"sendforget/internal/protocol/shuffle"
	"sendforget/internal/rng"
	"sendforget/internal/runtime"
	"sendforget/internal/transport"
)

// mgmtStarted is notified with the bound management address once the server
// is listening. Tests hook it to discover a :0-assigned port.
var mgmtStarted = func(addr string) {}

// newCore builds the step core for the named protocol.
func newCore(name string, s, dl int) (protocol.StepCore, error) {
	switch name {
	case "sf":
		return sendforget.NewCore(s, dl)
	case "sfopt":
		return sfopt.NewCore(sfopt.Options{S: s, DL: dl, ReplaceWhenFull: true, Undelete: true})
	case "shuffle":
		return shuffle.NewCore(s)
	case "flipper":
		return flipper.NewCore(s)
	case "pushpull":
		return pushpull.NewCore(s)
	default:
		return nil, fmt.Errorf("sfnode: unknown protocol %q (want sf, sfopt, shuffle, flipper, or pushpull)", name)
	}
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// config holds the parsed flags.
type config struct {
	// UDP mode.
	id                              int
	listen, advertise, peers, seeds string
	// -local mode.
	local  int
	engine string
	loss   float64
	// Both.
	proto                    string
	s, dl                    int
	seed                     int64
	period, report, duration time.Duration
	mgmt                     string
	pprof                    bool
}

// checkRanges refuses the flag values no run can use, before a socket or an
// engine exists: a ticker panics on a non-positive interval (-period and
// -report, in both modes), and a negative -local would otherwise select UDP
// mode and be answered with a complaint about -seeds; -pprof without -mgmt
// would serve the profiles nowhere.
func (c *config) checkRanges() error {
	switch {
	case c.period <= 0:
		return fmt.Errorf("sfnode: -period %v: the gossip period must be positive", c.period)
	case c.report <= 0:
		return fmt.Errorf("sfnode: -report %v: the report interval must be positive", c.report)
	case c.duration < 0:
		return fmt.Errorf("sfnode: -duration %v: the run length must not be negative (0 runs until a signal)", c.duration)
	case c.local < 0:
		return fmt.Errorf("sfnode: -local %d: the cluster size must not be negative (0 runs one UDP node)", c.local)
	case c.pprof && c.mgmt == "":
		return fmt.Errorf("sfnode: -pprof true: the profiles are served on the -mgmt listener, which is not set")
	}
	return nil
}

// daemon is what one mode hands the run loop: the management backend over
// whatever it built, and the few things serve cannot reach through it.
type daemon struct {
	backend mgmt.Backend
	// tick drives one gossip round: the cluster's, or the node's one
	// action. The run loop calls it once per period.
	tick func()
	// overlay returns the mode's own report fields: the node's view and
	// directory, or the cluster's graph health.
	overlay func() []any
	// close releases what the mode built, after the loop has returned.
	close func()
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	var c config
	fs := flag.NewFlagSet("sfnode", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.IntVar(&c.id, "id", 0, "this node's id")
	fs.StringVar(&c.listen, "listen", "127.0.0.1:0", "UDP listen address")
	fs.StringVar(&c.peers, "peers", "", "peer directory: id=host:port,id=host:port,...")
	fs.StringVar(&c.seeds, "seeds", "", "comma-separated ids for the initial view (at least max(2, dl))")
	fs.StringVar(&c.proto, "protocol", "sf", "protocol: sf, sfopt, shuffle, flipper, or pushpull")
	fs.IntVar(&c.s, "s", 8, "view size (even >= 6 for sf/sfopt)")
	fs.IntVar(&c.dl, "dl", 2, "duplication threshold (even, <= s-6; sf/sfopt only)")
	fs.DurationVar(&c.period, "period", 250*time.Millisecond, "gossip period (> 0)")
	fs.DurationVar(&c.report, "report", 2*time.Second, "view report interval (> 0)")
	fs.DurationVar(&c.duration, "duration", 0, "stop after this long (0 = run until signal)")
	fs.Int64Var(&c.seed, "seed", 0, "node RNG seed (0 draws one from OS entropy)")
	fs.StringVar(&c.advertise, "advertise", "", "address peers should learn for this node (default: the bound listen address)")
	fs.IntVar(&c.local, "local", 0, "run an in-process cluster of this many nodes instead of a UDP node")
	fs.StringVar(&c.engine, "engine", string(runtime.EngineCluster), "execution backend for -local: seq, cluster, or sharded")
	fs.Float64Var(&c.loss, "loss", 0, "simulated uniform loss rate for -local mode")
	fs.StringVar(&c.mgmt, "mgmt", "", "serve the management API + /metrics on this address (empty = disabled)")
	fs.BoolVar(&c.pprof, "pprof", false, "also serve net/http/pprof under /debug/pprof/ on the -mgmt address")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := c.checkRanges(); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if err := rejectUnusedDL(fs, c.proto); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	log := slog.New(slog.NewTextHandler(stdout, nil))
	// A production node wants unpredictable partner choices per process;
	// a fixed -seed reproduces a run exactly (pair it with -period for a
	// deterministic single-node trace). Either way the seed is logged so
	// any run can be replayed.
	if c.seed == 0 {
		var err error
		//lint:allow detrand production nodes and demo runs want fresh entropy; the seed is logged for replay
		if c.seed, err = rng.AutoSeed(); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	newDaemon := newUDPDaemon
	if c.local > 0 {
		newDaemon = newLocalDaemon
	} else if err := rejectLocalOnlyFlags(fs); err != nil {
		// Simulation-only knobs are a config error on a real node, not a
		// silent no-op: a UDP node's loss comes from the network, and
		// there is no engine to pick.
		fmt.Fprintln(stderr, err)
		return 2
	}
	d, err := newDaemon(c, log)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	defer d.close()
	return serve(ctx, d, c, log, stderr)
}

// serve is the run loop of both modes and their only clock: management
// bring-up, one tick per period, periodic reports, and the wait for a way
// out. Every way out — signal, management-API leave, deadline — funnels
// through one shutdown routine, which runs with ticking stopped: drain
// in-flight messages, report the final ledger, audit the view invariants. A
// Ctrl-C'd run must leave the same audited ledger behind as a timed one, and
// a failed audit is the exit code.
func serve(ctx context.Context, d *daemon, c config, log *slog.Logger, stderr io.Writer) int {
	// POST /config hands a new period to the loop, latest wins, so a burst
	// of reloads never blocks a handler. The server makes one call at a
	// time, so once a stale period is displaced the send cannot block.
	periodCh := make(chan time.Duration, 1)
	onPeriod := func(p time.Duration) {
		select {
		case <-periodCh:
		default:
		}
		periodCh <- p
	}
	var shutdownReq <-chan struct{}
	if c.mgmt != "" {
		srv, err := mgmt.New(mgmt.Options{
			Addr: c.mgmt, Backend: d.backend, Log: log, Pprof: c.pprof,
			Period: c.period, OnPeriod: onPeriod,
		})
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		if err := srv.Start(); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		defer stopMgmt(srv, log)
		shutdownReq = srv.ShutdownRequested()
		mgmtStarted(srv.Addr())
	}
	tick := time.NewTicker(c.period)
	defer tick.Stop()
	rep := time.NewTicker(c.report)
	defer rep.Stop()
	var deadline <-chan time.Time
	if c.duration > 0 {
		deadline = time.After(c.duration)
	}
	report := func() {
		st := d.backend.Status()
		log.Info("sfnode: overlay status", append([]any{
			"round", st.Rounds,
			"sends", st.Traffic.Sends, "losses", st.Traffic.Losses, "delivered", st.Traffic.Deliveries,
			"pending", st.Pending,
			"recvs", st.Counters.Receives, "replies", st.Counters.Replies,
			"dups", st.Counters.Duplications, "selfloops", st.Counters.SelfLoops,
		}, d.overlay()...)...)
	}
	shutdown := func(why string) int {
		log.Info("sfnode: shutting down", "reason", why)
		err := d.backend.Drain()
		report()
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	}
	for {
		select {
		case <-tick.C:
			d.tick()
		case p := <-periodCh:
			tick.Reset(p)
		case <-rep.C:
			report()
		case <-ctx.Done():
			return shutdown("signal (leaving on signal needs no protocol action)")
		case <-shutdownReq:
			// The /leave handler already drained and audited; running the
			// shared routine again is idempotent and keeps one exit path.
			return shutdown("leaving via management API")
		case <-deadline:
			return shutdown("duration elapsed")
		}
	}
}

// stopMgmt gives in-flight management requests a short grace period.
func stopMgmt(srv *mgmt.Server, log *slog.Logger) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Error("sfnode: mgmt shutdown", "err", err)
	}
}

// newUDPDaemon brings one real node up on its socket; the run loop ticks
// it.
func newUDPDaemon(c config, log *slog.Logger) (*daemon, error) {
	self, err := nodeID(c.id)
	if err != nil {
		return nil, fmt.Errorf("sfnode: bad -id: %w", err)
	}
	seeds, err := parseSeeds(c.seeds, self)
	if err != nil {
		return nil, err
	}
	core, err := newCore(c.proto, c.s, c.dl)
	if err != nil {
		return nil, err
	}
	n, ep, err := runtime.NewUDPNode(runtime.NodeConfig{
		ID: self, Core: core, Seed: rng.Seed(c.seed),
	}, seeds, c.listen, c.advertise, func(ep *transport.Endpoint) error {
		return addPeers(ep, c.peers)
	})
	if err != nil {
		return nil, err
	}
	backend, err := mgmt.NewUDPNode(mgmt.UDPNodeOptions{
		Node: n, Endpoint: ep,
		Protocol: c.proto, S: c.s, DL: c.dl, Seed: c.seed,
	})
	if err != nil {
		ep.Close()
		return nil, err
	}
	log.Info("sfnode: listening",
		"id", c.id, "protocol", core.Name(), "addr", ep.Addr().String(),
		"s", c.s, "dl", c.dl, "period", c.period, "seed", c.seed)
	return &daemon{
		backend: backend,
		tick:    n.Tick,
		overlay: func() []any {
			return []any{"view", n.ViewSnapshot().String(), "peers", ep.KnownPeers(), "learned", ep.LearnedPeers()}
		},
		close: func() { ep.Close() },
	}, nil
}

// rejectLocalOnlyFlags errors when a -local-only knob was set explicitly
// without -local.
func rejectLocalOnlyFlags(fs *flag.FlagSet) error {
	var bad []string
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "engine", "loss":
			bad = append(bad, "-"+f.Name)
		}
	})
	if len(bad) > 0 {
		return fmt.Errorf("sfnode: %s only apply to -local mode (a UDP node's loss and engine come from the real network)", strings.Join(bad, ", "))
	}
	return nil
}

// rejectUnusedDL errors when -dl was set explicitly for a protocol without a
// duplication threshold, which would run, log and report a value it ignores.
func rejectUnusedDL(fs *flag.FlagSet, proto string) error {
	var err error
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "dl" && (proto == "shuffle" || proto == "flipper" || proto == "pushpull") {
			err = fmt.Errorf("sfnode: -dl %s: %s has no duplication threshold (-dl applies to sf and sfopt only)", f.Value, proto)
		}
	})
	return err
}

// nodeID converts a flag's integer to a node id. The range is checked on the
// integer, before the conversion: peer.ID is 32 bits wide, so 4294967297
// converted first is node 1 — to the duplicate and self-seed checks and to the
// peer directory alike — and -1 is peer.Nil, the empty view slot.
func nodeID(v int) (peer.ID, error) {
	if v < 0 || v > math.MaxInt32 {
		return 0, fmt.Errorf("%d is outside [0, %d]", v, math.MaxInt32)
	}
	return peer.ID(v), nil
}

// parseID parses one node id of a flag value; the error names the token.
func parseID(token string) (peer.ID, error) {
	v, err := strconv.Atoi(strings.TrimSpace(token))
	if err != nil {
		return 0, fmt.Errorf("node id %q: %w", token, err)
	}
	id, err := nodeID(v)
	if err != nil {
		return 0, fmt.Errorf("node id %q: %w", token, err)
	}
	return id, nil
}

// parseSeeds parses the -seeds list for node self. Duplicate ids and self
// itself are configuration errors: a seed view with duplicates skews partner
// choice toward one peer, and a self-seed starts the node with the self-loop
// degeneracy the protocols work to repair.
func parseSeeds(s string, self peer.ID) ([]peer.ID, error) {
	if s == "" {
		return nil, fmt.Errorf("sfnode: -seeds is required")
	}
	var out []peer.ID
	seen := make(map[peer.ID]bool)
	for _, part := range strings.Split(s, ",") {
		id, err := parseID(part)
		if err != nil {
			return nil, fmt.Errorf("sfnode: bad seed: %w", err)
		}
		if id == self {
			return nil, fmt.Errorf("sfnode: seed %d is this node's own -id (a node cannot seed its view with itself)", id)
		}
		if seen[id] {
			return nil, fmt.Errorf("sfnode: duplicate seed %d (each seed id may appear once)", id)
		}
		seen[id] = true
		out = append(out, id)
	}
	return out, nil
}

func addPeers(ep *transport.Endpoint, spec string) error {
	if spec == "" {
		return fmt.Errorf("sfnode: -peers is required")
	}
	for _, part := range strings.Split(spec, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return fmt.Errorf("sfnode: bad peer entry %q (want id=host:port)", part)
		}
		id, err := parseID(kv[0])
		if err != nil {
			return fmt.Errorf("sfnode: bad peer entry %q: %w", part, err)
		}
		if err := ep.AddPeer(id, kv[1]); err != nil {
			return err
		}
	}
	return nil
}
