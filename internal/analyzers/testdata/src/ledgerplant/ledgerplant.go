// Package ledgerplant replays a ledger double count: a substrate that keeps
// the router's metrics.Traffic and, on handing a message to its node, counts
// the delivery the router already counted when it passed the message. Every
// run still drains and every per-substrate test still passes; only the
// cross-substrate identity Sends = Losses + Deliveries + DeadLetters breaks.
// The counterbalance analyzer must report the write: metrics.Traffic moves
// in internal/driver and nowhere else.
package ledgerplant

import "sendforget/internal/metrics"

type msg struct{ from, to int }

// router stands in for driver.Router, the ledger's single writer.
type router struct {
	ledger metrics.Traffic
	inbox  []msg
}

func (r *router) traffic() *metrics.Traffic { return &r.ledger }

type substrate struct {
	router *router
	views  [][]int
}

// deliver hands every routed message to its destination view.
func (s *substrate) deliver() {
	t := s.router.traffic()
	for _, m := range s.router.inbox {
		s.views[m.to] = append(s.views[m.to], m.from)
		t.Deliveries++ // want `direct write to Traffic.Deliveries outside its accounting package sendforget/internal/driver`
	}
	s.router.inbox = s.router.inbox[:0]
}
