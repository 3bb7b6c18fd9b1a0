// Package metrics is the traffic ledger, Traffic, and its Prometheus text
// exposition, PromWriter. It imports nothing of the module, so every layer
// that counts traffic or exposes it can import it. The membership properties
// are read elsewhere: graph.Pass reads degree balance and the dependence
// visible in the graph, and the Section 7 experiments estimate uniformity,
// the i.i.d. dependence baseline and temporal overlap decay.
package metrics

// Traffic is the traffic ledger, the only one: every substrate's
// driver.Router holds one and is the single writer of its fields (sfvet's
// counterbalance analyzer rejects a write anywhere else), and engine,
// cluster, sharded engine, /metrics and the experiments all read that same
// value — so loss behavior compares across substrates without a mapping
// between shapes that could drift.
//
// The counting semantics are identical on every substrate: Sends counts
// every attempted transmission, incremented before the fault layer, routing,
// or marshalling rules on the message; each attempt then lands in exactly
// one of Losses (dropped by the fault layer), DeadLetters (survived the
// fault layer but unroutable), or Deliveries (handed to a receive step) —
// immediately, or after a stay in the delay queue. So once the delay queue
// is drained, Sends = Losses + Deliveries + DeadLetters holds exactly.
type Traffic struct {
	// Sends counts attempted transmissions (including replies of
	// request/reply protocols), before loss, routing, or marshalling.
	Sends int
	// Losses counts messages dropped by the fault layer: the base loss
	// model plus the partition drops broken out below.
	Losses int
	// Deliveries counts messages handed to a live node's receive step.
	Deliveries int
	// DeadLetters counts messages addressed to departed or unroutable nodes.
	DeadLetters int

	// LinkLosses is always 0: the fault stack has no per-link loss. It
	// stays, with its /metrics series, because the benchmark module
	// (bench/stats.go, bench/daemon.go) reads it.
	LinkLosses int
	// PartitionDrops is the subset of Losses dropped by an active
	// partition (faults.Conditions.Partition).
	PartitionDrops int
	// Delayed counts messages routed through the delay queue; they are
	// additionally counted under Deliveries or DeadLetters when drained.
	Delayed int
}

// Conserved reports whether the traffic identity
// Sends = Losses + Deliveries + DeadLetters holds — true exactly when every
// attempted transmission has been accounted a final fate, i.e. after the
// substrate's delay queue has drained. Cross-substrate tests assert it on
// the engine, the cluster, and the sharded cluster alike.
func (t Traffic) Conserved() bool {
	return t.Sends == t.Losses+t.Deliveries+t.DeadLetters
}

// LossRate returns the empirical loss fraction over all sends.
func (t Traffic) LossRate() float64 {
	if t.Sends == 0 {
		return 0
	}
	return float64(t.Losses) / float64(t.Sends)
}
