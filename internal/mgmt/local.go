package mgmt

import (
	"fmt"
	"sync"
	"time"

	"sendforget/internal/graph"
	"sendforget/internal/peer"
	"sendforget/internal/runtime"
	"sendforget/internal/view"
)

// LocalOptions parameterizes a Local backend over an in-process cluster.
type LocalOptions struct {
	// Sub is the substrate to manage. The backend becomes its single
	// owner: the daemon's run loop must tick through Local.Tick, never
	// Sub.TickRound directly, so HTTP-driven churn and config reloads
	// serialize against ticking on every engine (the seq engine is not
	// internally synchronized; the cluster and sharded engines are, call
	// by call, but a Status spans several calls).
	Sub runtime.Substrate
	// Protocol, Engine, N, S, DL, Seed describe the running config.
	Protocol string
	Engine   string
	N        int
	S, DL    int
	Seed     int64
	// Period is the initial tick period.
	Period time.Duration
	// Loss is the initial base loss rate.
	Loss float64
	// OnPeriod, when non-nil, is called (outside the backend lock) after
	// a live period change so the daemon's run loop can retune its
	// ticker.
	OnPeriod func(time.Duration)
}

// Local adapts a runtime.Substrate to the management Backend. All substrate
// access is serialized under one mutex; see LocalOptions.Sub. The
// single-owner rule is load-bearing rather than advisory: sharedguard
// verifies that period, loss, and rounds are only ever touched under mu
// (or before the daemon goroutines exist), so a new HTTP handler that
// forgets the lock fails vet, not production.
type Local struct {
	opts LocalOptions

	mu     sync.Mutex
	period time.Duration
	loss   float64
	rounds int64
}

var _ Backend = (*Local)(nil)

// NewLocal builds the backend.
func NewLocal(opts LocalOptions) (*Local, error) {
	if opts.Sub == nil {
		return nil, fmt.Errorf("mgmt: nil substrate")
	}
	if opts.Period <= 0 {
		return nil, fmt.Errorf("mgmt: nonpositive period %v", opts.Period)
	}
	return &Local{opts: opts, period: opts.Period, loss: opts.Loss}, nil
}

// Tick drives one gossip round; the daemon's run loop calls it per period.
func (l *Local) Tick() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.opts.Sub.TickRound()
	l.rounds++
}

// Status reads the configuration, the round counter and every ledger in one
// hold of mu: no tick runs in between, so they describe the same round.
func (l *Local) Status() Status {
	l.mu.Lock()
	defer l.mu.Unlock()
	fc := l.opts.Sub.Conditions().Counters()
	return Status{
		Config: Config{
			Info: Info{Mode: "local", Protocol: l.opts.Protocol, Engine: l.opts.Engine, N: l.opts.N},
			S:    l.opts.S, DL: l.opts.DL, Seed: l.opts.Seed,
			Period: l.period.String(), Loss: l.loss,
		},
		Rounds:   l.rounds,
		Pending:  l.opts.Sub.Pending(),
		Counters: l.opts.Sub.Counters(),
		Traffic:  l.opts.Sub.Traffic(),
		Faults:   &fc,
	}
}

// snapshot takes the substrate's copy of the views — the one step that needs
// mu. What callers build from the copy (the graph, the API shapes) they build
// after it is released, so the tick loop waits for the copy and no longer.
func (l *Local) snapshot() []*view.View {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.opts.Sub.Views()
}

// Views renders the live views, ordered by node id, or just node *only's.
func (l *Local) Views(only *int) ([]NodeView, int) {
	views := l.snapshot()
	live := 0
	for _, v := range views {
		if v != nil {
			live++
		}
	}
	if only != nil {
		if *only < 0 || *only >= len(views) || views[*only] == nil {
			return nil, live
		}
		return []NodeView{nodeView(*only, views[*only])}, live
	}
	out := make([]NodeView, 0, live)
	for id, v := range views {
		if v != nil {
			out = append(out, nodeView(id, v))
		}
	}
	return out, live
}

// Snapshot returns the membership graph of one consistent view snapshot, so
// the daemon's report loop can read overlay health without racing
// HTTP-driven churn.
func (l *Local) Snapshot() *graph.Graph {
	return graph.FromViews(l.snapshot())
}

// inUniverse rejects an id that names no slot of the cluster. API ids are
// JSON integers: it runs before any conversion to the 32-bit peer.ID, which
// would wrap 1<<32 + 5 to node 5.
func (l *Local) inUniverse(id int) error {
	if id < 0 || id >= l.opts.N {
		return fmt.Errorf("mgmt: node id %d outside cluster universe [0, %d)", id, l.opts.N)
	}
	return nil
}

// Join activates a node slot with the given seed view.
func (l *Local) Join(req JoinRequest) error {
	if req.ID == nil {
		return fmt.Errorf("mgmt: join needs an id")
	}
	if len(req.Seeds) == 0 {
		return fmt.Errorf("mgmt: join needs seed ids (at least max(2, dL) live nodes)")
	}
	if err := l.inUniverse(*req.ID); err != nil {
		return err
	}
	seeds := make([]peer.ID, len(req.Seeds))
	for i, s := range req.Seeds {
		if s == *req.ID {
			return fmt.Errorf("mgmt: node %d cannot seed its view with itself", s)
		}
		if err := l.inUniverse(s); err != nil {
			return err
		}
		seeds[i] = peer.ID(s)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	// The daemon run loop drives rounds through Tick, so joined nodes are
	// picked up on the next round; no per-node timer to start.
	return l.opts.Sub.AddNode(peer.ID(*req.ID), seeds, false)
}

// Leave removes node id (no protocol action — the paper's leave).
func (l *Local) Leave(id int) error {
	if err := l.inUniverse(id); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	views := l.opts.Sub.Views()
	if id >= len(views) || views[id] == nil {
		return fmt.Errorf("mgmt: node %d is not active", id)
	}
	l.opts.Sub.RemoveNode(peer.ID(id))
	return nil
}

// Drain delivers everything in flight, then checks every live node's view
// invariant — the traffic identity Sends = Losses + Deliveries + DeadLetters
// holds exactly on the counters scraped afterwards.
func (l *Local) Drain() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.opts.Sub.DrainDelayed()
	return l.opts.Sub.CheckInvariants()
}

// Reconfigure applies a live partial update: period retunes the daemon's
// tick cadence (via OnPeriod), loss swaps the fault layer's base model.
// Validation is all-or-nothing: a bad field leaves the whole update
// unapplied.
func (l *Local) Reconfigure(upd ConfigUpdate) error {
	var period time.Duration
	if upd.Period != nil {
		d, err := parsePeriod(*upd.Period)
		if err != nil {
			return err
		}
		period = d
	}
	if upd.Loss != nil && (*upd.Loss < 0 || *upd.Loss > 1) {
		return fmt.Errorf("mgmt: loss rate %g outside [0, 1]", *upd.Loss)
	}
	l.mu.Lock()
	if upd.Loss != nil {
		if err := l.opts.Sub.Conditions().SetRate(*upd.Loss); err != nil {
			l.mu.Unlock()
			return err
		}
		l.loss = *upd.Loss
	}
	if upd.Period != nil {
		l.period = period
	}
	l.mu.Unlock()
	if upd.Period != nil && l.opts.OnPeriod != nil {
		l.opts.OnPeriod(period)
	}
	return nil
}
