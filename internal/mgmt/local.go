package mgmt

import (
	"fmt"
	"sync"
	"time"

	"sendforget/internal/graph"
	"sendforget/internal/peer"
	"sendforget/internal/protocol"
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
	// Period is not read: the gossip period is the run loop's, reported
	// and reloaded by the server (Options.Period).
	Period time.Duration
	// Loss is the initial base loss rate.
	Loss float64
}

// Local adapts a runtime.Substrate to the management Backend. All substrate
// access is serialized under one mutex; see LocalOptions.Sub. The
// single-owner rule is load-bearing rather than advisory: sharedguard
// verifies that loss and rounds are only ever touched under mu (or before
// the daemon goroutines exist), so a new HTTP handler that forgets the lock
// fails vet, not production.
type Local struct {
	opts LocalOptions

	mu     sync.Mutex
	loss   float64
	rounds int64
	pass   *graph.Pass // Snapshot's, kept between reports
}

var _ Backend = (*Local)(nil)

// NewLocal builds the backend.
func NewLocal(opts LocalOptions) (*Local, error) {
	if opts.Sub == nil {
		return nil, fmt.Errorf("mgmt: nil substrate")
	}
	return &Local{opts: opts, loss: opts.Loss, pass: graph.NewPass(opts.N)}, nil
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
			S:    l.opts.S, DL: l.opts.DL, Seed: l.opts.Seed, Loss: l.loss,
		},
		Rounds:   l.rounds,
		Pending:  l.opts.Sub.Pending(),
		Counters: l.opts.Sub.Counters(),
		Traffic:  l.opts.Sub.Traffic(),
		Faults:   &fc,
	}
}

// snapshot takes the substrate's copy of the views under mu. Views renders
// the API shapes from the copy after mu is released, so the tick loop waits
// for the copy and no longer.
func (l *Local) snapshot() []*view.View {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.opts.Sub.Views()
}

// node renders node id's view and counts the live nodes in one EachNode
// pass, copying no other view; ok reports whether id is live. Callers hold
// mu.
func (l *Local) node(id int) (nv NodeView, live int, ok bool) {
	l.opts.Sub.EachNode(func(u peer.ID, lv *view.View, _ protocol.StepCore) {
		live++
		if int(u) == id {
			nv, ok = nodeView(id, lv), true
		}
	})
	return nv, live, ok
}

// Views renders the live views, ordered by node id, or just node *only's,
// which is read in place under mu.
func (l *Local) Views(only *int) ([]NodeView, int) {
	if only != nil {
		l.mu.Lock()
		nv, live, ok := l.node(*only)
		l.mu.Unlock()
		if !ok {
			return nil, live
		}
		return []NodeView{nv}, live
	}
	views := l.snapshot()
	out := make([]NodeView, 0, len(views))
	for id, v := range views {
		if v != nil {
			out = append(out, nodeView(id, v))
		}
	}
	return out, len(out)
}

// Snapshot reads the quality of the membership graph over the live nodes, in
// one consistent state, so the daemon's report loop can read overlay health
// without racing HTTP-driven churn. It is one graph.Pass over EachNode under
// mu, which copies no view and reuses the backend's Pass: a report allocates
// a few small objects whatever n is. An entry naming a departed node counts
// as an edge, not as a vertex.
func (l *Local) Snapshot() graph.Quality {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.pass.Live(l.opts.Sub.EachNode)
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
	if _, _, ok := l.node(id); !ok {
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

// Reconfigure swaps the fault layer's base loss model. A rate outside
// [0, 1] leaves it unapplied.
func (l *Local) Reconfigure(upd ConfigUpdate) error {
	if upd.Loss == nil {
		return nil
	}
	if *upd.Loss < 0 || *upd.Loss > 1 {
		return fmt.Errorf("mgmt: loss rate %g outside [0, 1]", *upd.Loss)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.opts.Sub.Conditions().SetRate(*upd.Loss); err != nil {
		return err
	}
	l.loss = *upd.Loss
	return nil
}
