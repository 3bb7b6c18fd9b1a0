// Package mgmt is the control plane that promotes sfnode from a CLI into a
// production daemon: an HTTP/JSON management API (/join, /leave, /view,
// /health, /config) plus a Prometheus text /metrics exporter, served next to
// the gossip loop. The same API shape works for a single real UDP node and
// for an in-process -local cluster — the Backend interface is the seam — so
// operators and tests drive both through identical requests. Every read
// endpoint answers from one Backend.Status call, so all series of one
// /metrics scrape are read at the same instant.
//
// The gossip protocols themselves need nothing but fire-and-forget
// datagrams (the paper's practicality claim); everything in this package is
// observation and lifecycle around them: the protocol layer has no
// dependency on mgmt and keeps working with the server switched off.
package mgmt

import (
	"fmt"
	"time"

	"sendforget/internal/faults"
	"sendforget/internal/metrics"
	"sendforget/internal/runtime"
	"sendforget/internal/view"
)

// Info identifies what the daemon is running, for /health and /config.
type Info struct {
	// Mode is "udp" (one real node) or "local" (in-process cluster).
	Mode string `json:"mode"`
	// Protocol is the step-core name (sf, sfopt, shuffle, flipper, pushpull).
	Protocol string `json:"protocol"`
	// Engine is the -local execution backend (seq, cluster, sharded);
	// empty in UDP mode.
	Engine string `json:"engine,omitempty"`
	// N is the node universe size (1 in UDP mode).
	N int `json:"n"`
}

// NodeView is one node's current view: the occupied entries, in slot order.
type NodeView struct {
	ID   int   `json:"id"`
	View []int `json:"view"`
}

// JoinRequest admits a member. In local mode ID+Seeds activate a node slot
// (the paper's join rule: a joining node must know at least max(2, dL) live
// ids). In UDP mode ID+Addr add a peer to the transport directory — the
// bootstrap introduction; the gossip itself then spreads the address.
type JoinRequest struct {
	ID    *int   `json:"id"`
	Seeds []int  `json:"seeds,omitempty"`
	Addr  string `json:"addr,omitempty"`
}

// LeaveRequest removes a member. With an ID (local mode) that node departs
// — no protocol action, exactly the paper's leave semantics. Without an ID
// the daemon itself leaves: the backend drains in-flight messages, checks
// invariants, and the server signals the run loop to shut down.
type LeaveRequest struct {
	ID *int `json:"id,omitempty"`
}

// Config is the live-reloadable slice of the daemon's configuration, plus
// the read-only identity fields an operator wants alongside it.
type Config struct {
	Info
	S      int     `json:"s"`
	DL     int     `json:"dl"`
	Seed   int64   `json:"seed"`
	Period string  `json:"period"`
	Loss   float64 `json:"loss"`
}

// ConfigUpdate is a partial live reconfiguration: nil fields are untouched.
// Period retunes the gossip/tick cadence on any backend; Loss swaps the
// fault layer's base model (local mode only — a real network's loss is not
// ours to set).
type ConfigUpdate struct {
	Period *string  `json:"period,omitempty"`
	Loss   *float64 `json:"loss,omitempty"`
}

// Status is one reading of the daemon: every field is sampled in a single
// hold of the backend's lock, so identities between them (traffic sends =
// node sends + replies = fault decisions; sends = losses + deliveries + dead
// letters + pending) hold on a live daemon, not only on a drained one. Every
// read endpoint is a projection of it, and a new probe is a new field here,
// filled in the same lock hold.
type Status struct {
	// Config is the daemon's identity and live configuration.
	Config
	// Rounds is the logical-time progress counter (ticked rounds in local
	// mode, initiated actions in UDP mode).
	Rounds int64
	// Pending is the number of messages parked in the delay queue.
	Pending int
	// Counters sums the node-level protocol ledger.
	Counters runtime.NodeCounters
	// Traffic is the transport ledger.
	Traffic metrics.Traffic
	// Faults is the fault-layer ledger; nil when no fault layer exists (UDP
	// mode — the real network injects its own).
	Faults *faults.Counters
}

// Backend is the seam between the HTTP layer and the thing actually
// gossiping. Implementations must be safe for concurrent use: handlers run
// on server goroutines while the daemon's run loop ticks.
type Backend interface {
	// Status reads the daemon's identity, configuration and ledgers at one
	// instant.
	Status() Status
	// Views snapshots the live views, ordered by node id, and counts them.
	// With only set, views holds that node's view alone, or nothing when
	// the node is not live; live is the full count either way.
	Views(only *int) (views []NodeView, live int)
	// Join admits a member per JoinRequest.
	Join(req JoinRequest) error
	// Leave removes member id (local mode).
	Leave(id int) error
	// Drain delivers everything in flight and checks the per-view
	// invariants — the daemon's shutdown routine runs it, and /leave
	// without an id runs it before requesting daemon shutdown.
	Drain() error
	// Reconfigure applies a live partial update.
	Reconfigure(upd ConfigUpdate) error
}

// nodeView renders node id's view in the API shape.
func nodeView(id int, v *view.View) NodeView {
	ids := v.IDs()
	entries := make([]int, len(ids))
	for i, e := range ids {
		entries[i] = int(e)
	}
	return NodeView{ID: id, View: entries}
}

// parsePeriod validates a ConfigUpdate period string.
func parsePeriod(s string) (time.Duration, error) {
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("mgmt: bad period %q: %w", s, err)
	}
	if d <= 0 {
		return 0, fmt.Errorf("mgmt: period must be positive, got %v", d)
	}
	return d, nil
}
