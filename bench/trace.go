package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync/atomic"
	"time"

	"sendforget/internal/metrics"
	"sendforget/internal/peer"
	"sendforget/internal/protocol"
	"sendforget/internal/runtime"
	"sendforget/internal/view"
)

// spanKind indexes spanNames: spans store a byte, the names are written out
// once, when the trace is exported.
type spanKind uint8

const (
	spRound spanKind = iota
	spTickRound
	spDrain
	spViews
	spCheckInvariants
	spCounters
	spTraffic
	spAddNode
	spRemoveNode
	spLocalTick
	spStatus
	spScrape
	spViewByID
	spNodeTick
	spNodeHandle
	spUDPSend
	spBarrier
)

var spanNames = [...]struct{ layer, name string }{
	spRound:           {"bench", "round"},
	spTickRound:       {"runtime", "Substrate.TickRound"},
	spDrain:           {"runtime", "Substrate.DrainDelayed"},
	spViews:           {"runtime", "Substrate.Views"},
	spCheckInvariants: {"runtime", "Substrate.CheckInvariants"},
	spCounters:        {"runtime", "Substrate.Counters"},
	spTraffic:         {"runtime", "Substrate.Traffic"},
	spAddNode:         {"runtime", "Substrate.AddNode"},
	spRemoveNode:      {"runtime", "Substrate.RemoveNode"},
	spLocalTick:       {"mgmt", "Local.Tick"},
	spStatus:          {"mgmt", "Local.Snapshot+ComponentCount"},
	spScrape:          {"mgmt", "GET /metrics"},
	spViewByID:        {"mgmt", "GET /view?id"},
	spNodeTick:        {"runtime", "Node.Tick"},
	spNodeHandle:      {"runtime", "Node.HandleMessage"},
	spUDPSend:         {"transport", "Endpoint.Send"},
	spBarrier:         {"bench", "delivery barrier"},
}

// span is one timed call. id is its 1-based slot in the recorder, parent is
// the span that made the call (0 for a root).
type span struct {
	id, parent uint32
	kind       spanKind
	round      int32
	start, end int64 // ns since the recorder's epoch
}

func (s span) dur() int64 { return s.end - s.start }

// maxSpans bounds a trace: the udp workload makes three spans per message,
// and an unbounded trace of it would cost more than the run it describes.
const maxSpans = 1 << 17

// recorder keeps spans in a preallocated slab so that recording neither
// allocates nor locks: a slot is claimed with one atomic add. While off it
// costs the decorators one atomic load.
type recorder struct {
	on    atomic.Bool
	next  atomic.Uint32
	round atomic.Int32
	spans []span
	epoch time.Time

	// open is the innermost span open on the driver goroutine. Decorators
	// cannot be handed a parent id through the interface they wrap, so the
	// ones only the driver calls adopt this span: the call is synchronous on
	// that goroutine, which makes containment exact.
	open uint32
}

func newRecorder() *recorder {
	return &recorder{spans: make([]span, maxSpans), epoch: time.Now()}
}

func (r *recorder) enabled() bool { return r != nil && r.on.Load() }

// full reports that the slab has no room for another round's spans.
func (r *recorder) full(perRound int) bool {
	return int(r.next.Load())+perRound > len(r.spans)
}

// begin opens a span under parent from any goroutine. It returns 0 when the
// slab is full; end(0) is a no-op and the span is counted as dropped.
func (r *recorder) begin(kind spanKind, parent uint32) uint32 {
	id := r.next.Add(1)
	if int(id) > len(r.spans) {
		return 0
	}
	r.spans[id-1] = span{id: id, parent: parent, kind: kind, round: r.round.Load(), start: int64(time.Since(r.epoch))}
	return id
}

func (r *recorder) end(id uint32) {
	if id != 0 {
		r.spans[id-1].end = int64(time.Since(r.epoch))
	}
}

// enter and leave nest a span under the driver goroutine's open span. Only
// the driver goroutine may call them.
func (r *recorder) enter(kind spanKind) (id, prev uint32) {
	prev = r.open
	id = r.begin(kind, prev)
	if id != 0 {
		r.open = id
	}
	return id, prev
}

func (r *recorder) leave(id, prev uint32) {
	r.end(id)
	r.open = prev
}

// recorded returns the finished spans and how many did not fit.
func (r *recorder) recorded() (spans []span, dropped int) {
	n := int(r.next.Load())
	if n > len(r.spans) {
		dropped = n - len(r.spans)
		n = len(r.spans)
	}
	return r.spans[:n], dropped
}

// selfTimes returns, per span, its duration minus the time its children
// cover. Children of one parent made by one goroutine do not overlap, so the
// sum of their durations is the covered part.
func selfTimes(spans []span) []int64 {
	index := make(map[uint32]int, len(spans))
	self := make([]int64, len(spans))
	for i, s := range spans {
		index[s.id] = i
		self[i] = s.dur()
	}
	for _, s := range spans {
		if p, ok := index[s.parent]; ok {
			self[p] -= s.dur()
		}
	}
	return self
}

// durationsOf returns the durations (self times when self is set) of the
// spans of one kind, in the given unit.
func durationsOf(spans []span, kind spanKind, self bool, unit time.Duration) []float64 {
	var selfNS []int64
	if self {
		selfNS = selfTimes(spans)
	}
	var out []float64
	for i, s := range spans {
		if s.kind != kind || s.end == 0 {
			continue
		}
		d := s.dur()
		if self {
			d = selfNS[i]
		}
		out = append(out, float64(d)/float64(unit))
	}
	return out
}

// spanRecord is the JSONL shape of one exported span.
type spanRecord struct {
	ID       uint32 `json:"id"`
	Parent   uint32 `json:"parent"`
	Layer    string `json:"layer"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Round    int32  `json:"round"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// writeTrace exports the spans as one JSON object per line.
func writeTrace(path, workload string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		n := spanNames[s.kind]
		if err := enc.Encode(spanRecord{s.id, s.parent, n.layer, n.name, workload, s.round, s.start, s.end}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedSub records a span around each Substrate call the benchmark reports.
// The mutating calls are made by the driver goroutine alone and nest under
// its open span; the reads may come from HTTP handler goroutines and are
// recorded as roots.
type tracedSub struct {
	runtime.Substrate
	rec *recorder
}

func (t tracedSub) driverCall(kind spanKind, call func()) {
	if !t.rec.enabled() {
		call()
		return
	}
	id, prev := t.rec.enter(kind)
	call()
	t.rec.leave(id, prev)
}

func (t tracedSub) anyCall(kind spanKind, call func()) {
	if !t.rec.enabled() {
		call()
		return
	}
	id := t.rec.begin(kind, 0)
	call()
	t.rec.end(id)
}

func (t tracedSub) TickRound()    { t.driverCall(spTickRound, t.Substrate.TickRound) }
func (t tracedSub) DrainDelayed() { t.driverCall(spDrain, t.Substrate.DrainDelayed) }

func (t tracedSub) RemoveNode(u peer.ID) {
	t.driverCall(spRemoveNode, func() { t.Substrate.RemoveNode(u) })
}

func (t tracedSub) AddNode(u peer.ID, seeds []peer.ID, start bool) (err error) {
	t.driverCall(spAddNode, func() { err = t.Substrate.AddNode(u, seeds, start) })
	return err
}

func (t tracedSub) CheckInvariants() (err error) {
	t.driverCall(spCheckInvariants, func() { err = t.Substrate.CheckInvariants() })
	return err
}

func (t tracedSub) Views() (v []*view.View) {
	t.anyCall(spViews, func() { v = t.Substrate.Views() })
	return v
}

func (t tracedSub) Counters() (c runtime.NodeCounters) {
	t.anyCall(spCounters, func() { c = t.Substrate.Counters() })
	return c
}

func (t tracedSub) Traffic() (tr metrics.Traffic) {
	t.anyCall(spTraffic, func() { tr = t.Substrate.Traffic() })
	return tr
}

// tracedSender times Endpoint.Send under the Node.Tick span that caused it:
// Node.Tick sends synchronously on the driver goroutine.
type tracedSender struct {
	out runtime.Sender
	rec *recorder
}

func (t tracedSender) Send(to peer.ID, msg protocol.Message) error {
	if !t.rec.enabled() {
		return t.out.Send(to, msg)
	}
	id, prev := t.rec.enter(spUDPSend)
	err := t.out.Send(to, msg)
	t.rec.leave(id, prev)
	return err
}
