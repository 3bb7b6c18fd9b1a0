// Package counterbalance exercises the counterbalance analyzer: traffic
// ledger fields move only in their owning package, and every send write is
// paired with an outcome write.
package counterbalance

import "sendforget/internal/metrics"

// Ledger matches the structural ledger test: an integer send field plus at
// least two integer outcome fields. This package owns it, so rule 2
// (send/outcome balance) applies here.
type Ledger struct {
	Sends       int
	Losses      int
	Deliveries  int
	DeadLetters int
}

// Record matches the shapes the ledger test must exclude: its Sent and Lost
// describe one event, not tallies, and they are bools.
type Record struct {
	Sent bool
	Lost bool
	Note string
}

func balanced(l *Ledger, lost bool) {
	l.Sends++
	if lost {
		l.Losses++
	} else {
		l.Deliveries++
	}
}

func sendOnly(l *Ledger) {
	l.Sends++ // want `sendOnly counts a send \(Ledger.Sends\) but records no outcome`
}

// Outcome-only writers (delay-queue drains) are legal.
func drain(l *Ledger, dead int) {
	l.DeadLetters += dead
}

// Per-event records are not ledgers; marking one is always fine.
func mark(r *Record) {
	r.Sent = true
	r.Lost = true
}

// Constructing a ledger whole via a composite literal states a complete
// ledger; it does not perturb a live one.
func snapshot(sends, losses, deliveries int) Ledger {
	return Ledger{Sends: sends, Losses: losses, Deliveries: deliveries}
}

// metrics.Traffic is written by internal/driver alone; poking its fields from
// here breaks rule 1 regardless of balance.
func poke(t *metrics.Traffic) {
	t.Sends++      // want `direct write to Traffic.Sends outside its accounting package sendforget/internal/driver`
	t.Deliveries++ // want `direct write to Traffic.Deliveries outside its accounting package sendforget/internal/driver`
}

// Reading foreign ledgers is how they are meant to be consumed.
func lossRate(t *metrics.Traffic) float64 {
	if t.Sends == 0 {
		return 0
	}
	return float64(t.Losses) / float64(t.Sends)
}

// The escape hatch: a test harness resetting a foreign ledger in place.
func reset(t *metrics.Traffic) {
	//lint:allow counterbalance harness-only ledger reset
	t.Sends = 0
}
