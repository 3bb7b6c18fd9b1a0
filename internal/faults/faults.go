// Package faults is the composable network-condition layer shared by the
// two execution substrates: the in-memory transport.Network of the
// concurrent runtime and the sequential engine both consult one Conditions
// instance per run, so fault injection behaves identically — decision order,
// RNG draws, and counters — no matter which substrate carries the traffic.
//
// The paper's analysis (Section 4) assumes uniform i.i.d. loss. Conditions
// generalizes that single knob into the failure modes real deployments see
// and related systems are evaluated against (Cyclon under burst loss,
// HyParView under partitions): a stateful base loss model (e.g.
// Gilbert-Elliott bursts), per-link asymmetric loss overrides, dynamic
// partitions with healing, and fixed/jittered delivery delay that reorders
// messages. Each condition reports its own counter so experiments can
// attribute every dropped or late message to the condition that caused it.
package faults

import (
	"fmt"
	"maps"
	"sync"

	"sendforget/internal/loss"
	"sendforget/internal/peer"
	"sendforget/internal/rng"
)

// Drop identifies which condition dropped a message.
type Drop uint8

// Drop reasons.
const (
	// DropNone means the message survived every condition.
	DropNone Drop = iota
	// DropModel is a drop by the base loss model (the paper's l).
	DropModel
	// DropLink is a drop by a per-link override model.
	DropLink
	// DropPartition is a structural drop across an active partition.
	DropPartition
)

func (d Drop) String() string {
	switch d {
	case DropNone:
		return "none"
	case DropModel:
		return "model"
	case DropLink:
		return "link"
	case DropPartition:
		return "partition"
	}
	return fmt.Sprintf("drop(%d)", uint8(d))
}

// Verdict is the fate of one message: dropped for a reason, or delivered
// after Delay rounds (0 = immediately).
type Verdict struct {
	Drop  Drop
	Delay int
}

// Link is a directed sender-receiver pair for asymmetric overrides.
type Link struct {
	From, To peer.ID
}

// Delay configures delivery latency in substrate rounds: every surviving
// message is held for Fixed rounds plus a uniform jitter in [0, Jitter].
// Jitter > 0 reorders messages (a later send can outrun an earlier one),
// which is exactly the nonatomicity Section 4.1's step model permits.
type Delay struct {
	Fixed  int
	Jitter int
}

// Counters tallies per-condition events. ModelDrops + LinkDrops +
// PartitionDrops is the total loss the substrate reports as Traffic.Losses.
type Counters struct {
	// Decisions counts Decide calls (one per attempted transmission).
	Decisions int
	// ModelDrops counts drops by the base loss model.
	ModelDrops int
	// LinkDrops counts drops by per-link override models.
	LinkDrops int
	// PartitionDrops counts drops across an active partition.
	PartitionDrops int
	// Delayed counts messages assigned a nonzero delivery delay.
	Delayed int
	// Partitions and Heals count topology changes.
	Partitions int
	Heals      int
}

// Drops returns the total number of dropped messages.
func (c Counters) Drops() int { return c.ModelDrops + c.LinkDrops + c.PartitionDrops }

// add accumulates other into c.
func (c *Counters) add(other *Counters) {
	c.Decisions += other.Decisions
	c.ModelDrops += other.ModelDrops
	c.LinkDrops += other.LinkDrops
	c.PartitionDrops += other.PartitionDrops
	c.Delayed += other.Delayed
	c.Partitions += other.Partitions
	c.Heals += other.Heals
}

// Conditions is a composable network-condition stack. The zero value is not
// usable; construct with New or Lossless. Safe for concurrent use: the
// runtime's network consults it from handler goroutines while tests
// partition and heal it.
//
// Decision order is fixed and substrate-independent: partition check
// (structural, no RNG draw), then the per-link override model if one is
// registered for the (from, to) link, otherwise the base model, then delay
// assignment (one extra draw only when Jitter > 0). The order is written
// once, in rules.decide; Decide, Session.Decide and Decider.Decide are three
// ways of reaching it.
type Conditions struct {
	mu    sync.Mutex
	rules       // the live configuration, written by the setters
	own   seat  // where Decide and Session.Decide land
	snap  rules // what attached deciders read; rewritten by Sync
	seats []*Decider
}

// rules is the configuration a decision reads, the base model aside (a
// decision finds that in its seat). Nothing reachable from it is written in
// place once installed — SetLinkLoss installs a fresh map, Partition a fresh
// table — so a copy of the struct taken under mu is a snapshot that stays
// valid, and readable without the lock, while the stack is reconfigured.
type rules struct {
	links map[Link]loss.Model
	group []int32 // nil when healed; group[id] is id's group, -1 when listed in none
	delay Delay
}

// seat is what a decision writes besides its RNG: the base model instance it
// advances — the stack's own, or one decider's fork of a stateful one — and
// the counters it bumps.
type seat struct {
	base loss.Model
	dest loss.DestinationModel // base pre-asserted, nil if not destination-aware
	c    Counters
}

// sit installs m as the seat's base model.
func (st *seat) sit(m loss.Model) {
	st.base = m
	st.dest, _ = m.(loss.DestinationModel)
}

// New builds a condition stack over the given base loss model.
func New(base loss.Model) (*Conditions, error) {
	if base == nil {
		return nil, fmt.Errorf("faults: nil base loss model")
	}
	c := &Conditions{}
	c.own.sit(base)
	return c, nil
}

// Lossless returns a condition stack whose base model never drops — the
// starting point for pure partition/delay scenarios.
func Lossless() *Conditions {
	c, _ := New(loss.None{})
	return c
}

// FromRate builds a condition stack over a uniform i.i.d. base model — the
// paper's loss setting, used when a plain rate is all the caller configures.
func FromRate(rate float64) (*Conditions, error) {
	m, err := loss.NewUniform(rate)
	if err != nil {
		return nil, err
	}
	return New(m)
}

// Base returns the base loss model.
func (c *Conditions) Base() loss.Model {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.own.base
}

// SetBase swaps the base loss model live — the management API's loss-reload
// path. Per-link overrides, partitions, delay, and all counters are
// untouched; only the base model changes, taking effect on the next
// decision (for attached deciders, on the next Sync, each with a fresh fork
// of a stateful model). Swapping a stateful model resets its state by
// construction (the caller built a fresh model), which is the intended
// semantics of a reload.
func (c *Conditions) SetBase(m loss.Model) error {
	if m == nil {
		return fmt.Errorf("faults: nil base loss model")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.own.sit(m)
	for _, d := range c.seats {
		d.next = fork(m)
	}
	return nil
}

// fork returns the model a decider seats for base model m: its own fork of a
// stateful model, m itself otherwise.
func fork(m loss.Model) loss.Model {
	if f, ok := m.(loss.Forker); ok {
		return f.Fork()
	}
	return m
}

// SetRate is SetBase with a fresh uniform i.i.d. model at the given rate —
// the paper's single loss knob, reloadable at runtime.
func (c *Conditions) SetRate(rate float64) error {
	m, err := loss.NewUniform(rate)
	if err != nil {
		return err
	}
	return c.SetBase(m)
}

// Rate returns the base model's long-run loss rate (link overrides and
// partitions add to the realized rate; experiments read the realized rate
// from the traffic counters instead).
func (c *Conditions) Rate() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.own.base.Rate()
}

// SetLinkLoss installs (or, with a nil model, removes) a loss override for
// the directed link from -> to. Overridden links bypass the base model
// entirely, so asymmetric and per-destination scenarios compose with any
// base model. The override table is replaced, never edited: a snapshot taken
// earlier keeps the table it saw.
func (c *Conditions) SetLinkLoss(from, to peer.ID, m loss.Model) {
	c.mu.Lock()
	defer c.mu.Unlock()
	links := maps.Clone(c.links)
	if m == nil {
		delete(links, Link{From: from, To: to})
	} else {
		if links == nil {
			links = make(map[Link]loss.Model)
		}
		links[Link{From: from, To: to}] = m
	}
	c.links = links
}

// MaxDelay is the longest delivery delay, Fixed+Jitter, SetDelay accepts, in
// rounds. Substrates size their delay calendars from the delays they are
// handed, so the bound is what keeps a mistyped delay from becoming an
// allocation of that many buckets.
const MaxDelay = 65535

// SetDelay configures delivery delay; Delay{} disables it. Negative fields
// and a Fixed+Jitter above MaxDelay are rejected.
func (c *Conditions) SetDelay(d Delay) error {
	if d.Fixed < 0 || d.Jitter < 0 {
		return fmt.Errorf("faults: negative delay %+v", d)
	}
	// Compared per field and by subtraction, so a sum that would overflow
	// int is rejected too.
	if d.Fixed > MaxDelay || d.Jitter > MaxDelay-d.Fixed {
		return fmt.Errorf("faults: delay %+v exceeds %d rounds", d, MaxDelay)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.delay = d
	return nil
}

// Partition splits the network into the given groups: messages between
// different groups (or touching a node listed in no group — such nodes form
// one implicit leftover group) are dropped until Heal. Replaces any active
// partition. Negative ids such as peer.Nil name no node and are ignored. The
// group table is dense, one entry per id up to the largest listed.
func (c *Conditions) Partition(groups ...[]peer.ID) {
	size := 0
	for _, members := range groups {
		for _, id := range members {
			size = max(size, int(id)+1)
		}
	}
	g := make([]int32, size)
	for i := range g {
		g[i] = -1
	}
	for i, members := range groups {
		for _, id := range members {
			if id >= 0 {
				g[id] = int32(i)
			}
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.group = g
	c.own.c.Partitions++
}

// Heal removes the active partition.
func (c *Conditions) Heal() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.group != nil {
		c.group = nil
		c.own.c.Heals++
	}
}

// Partitioned reports whether an active partition separates from and to.
func (c *Conditions) Partitioned(from, to peer.ID) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.separated(from, to)
}

// separated implements the partition check.
func (ru *rules) separated(from, to peer.ID) bool {
	if ru.group == nil {
		return false
	}
	return ru.groupOf(from) != ru.groupOf(to)
}

// groupOf returns id's group in the active partition, -1 for an id listed in
// no group (negative ids and ids past the table among them).
func (ru *rules) groupOf(id peer.ID) int32 {
	if uint(id) < uint(len(ru.group)) {
		return ru.group[id]
	}
	return -1
}

// decide is the decision order, for every way of reaching the stack: it rules
// on one attempted transmission from -> to under ru, advancing the models and
// counters of st and drawing from r. The common configuration — no partition,
// no overrides — costs two branches before its one model call.
func (ru *rules) decide(st *seat, from, to peer.ID, r *rng.RNG) Verdict {
	st.c.Decisions++
	if ru.separated(from, to) {
		st.c.PartitionDrops++
		return Verdict{Drop: DropPartition}
	}
	if m, ok := ru.override(from, to); ok {
		if lostTo(m, to, r) {
			st.c.LinkDrops++
			return Verdict{Drop: DropLink}
		}
	} else if st.lost(to, r) {
		st.c.ModelDrops++
		return Verdict{Drop: DropModel}
	}
	d := ru.delay.Fixed
	if ru.delay.Jitter > 0 {
		d += r.Intn(ru.delay.Jitter + 1)
	}
	if d > 0 {
		st.c.Delayed++
	}
	return Verdict{Delay: d}
}

// override returns the model registered for the directed link, if any.
func (ru *rules) override(from, to peer.ID) (loss.Model, bool) {
	if len(ru.links) == 0 {
		return nil, false
	}
	m, ok := ru.links[Link{From: from, To: to}]
	return m, ok
}

// lost consults the seat's base model.
func (st *seat) lost(to peer.ID, r *rng.RNG) bool {
	if st.dest != nil {
		return st.dest.LostTo(to, r)
	}
	return st.base.Lost(r)
}

// lostTo consults an override model, routing through the destination-aware
// interface when the model implements it.
func lostTo(m loss.Model, to peer.ID, r *rng.RNG) bool {
	if dm, ok := m.(loss.DestinationModel); ok {
		return dm.LostTo(to, r)
	}
	return m.Lost(r)
}

// Decide rules on one attempted transmission from -> to, advancing any
// stateful models and drawing from r in the documented order. The caller
// supplies its own RNG so each substrate keeps its deterministic stream.
func (c *Conditions) Decide(from, to peer.ID, r *rng.RNG) Verdict {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.decide(&c.own, from, to, r)
}

// A Session is a single-owner decision pass over the stack: Begin acquires
// the lock once and Close releases it, so a loop ruling on many messages
// pays the synchronization cost once instead of per message. While a session
// is open every other Conditions method blocks; the owner must Close before
// calling them.
type Session struct{ c *Conditions }

// Begin opens a decision session, holding the stack's lock until Close.
func (c *Conditions) Begin() Session {
	c.mu.Lock()
	return Session{c: c}
}

// Decide is Conditions.Decide without the per-call lock; see Begin.
func (s *Session) Decide(from, to peer.ID, r *rng.RNG) Verdict {
	return s.c.decide(&s.c.own, from, to, r)
}

// Close ends the session, releasing the stack.
func (s *Session) Close() { s.c.mu.Unlock() }

// A Decider is one of several streams ruling against the stack in parallel —
// the sharded engine attaches one per shard. It decides without the lock,
// against the snapshot of the configuration the last Sync took, on a seat of
// its own: its verdict stream, its counters, and its own fork of a stateful
// base model, so a Gilbert-Elliott burst is a burst over the messages this
// decider sees. Override models are not forked: a decider must be the only
// one ruling on a given link (the sharded engine rules where a message
// arrives, so a link is its destination's shard's alone). Between two Syncs a
// decider belongs to one goroutine at a time; everything it writes per
// message lives in the value itself, so deciders embedded in their owners'
// records share no cache line. The zero value is ready for Attach.
type Decider struct {
	ru *rules
	r  rng.RNG
	seat
	next loss.Model // base model to seat at the next Sync; guarded by the stack's mu
}

// Decide is Conditions.Decide against the last Sync's snapshot, drawing from
// the decider's own stream.
func (d *Decider) Decide(from, to peer.ID) Verdict {
	return d.ru.decide(&d.seat, from, to, &d.r)
}

// Attach makes d a decider of this stack, with a verdict stream seeded by
// seed; it may decide after the next Sync.
func (c *Conditions) Attach(d *Decider, seed int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	d.ru = &c.snap
	d.r = rng.NewState(seed)
	d.next = fork(c.own.base)
	c.seats = append(c.seats, d)
}

// Sync is the exchange between the stack and its attached deciders, made by
// their owner while none of them is deciding: the counters they accumulated
// are folded into the stack's, and the configuration as it stands becomes the
// snapshot they rule against — a base model set since the last Sync is seated
// now. An engine calls it at the start of a tick, so that a setter called
// between two ticks takes effect on the very next one, and at its end, so
// that Counters is whole whenever the engine is idle.
func (c *Conditions) Sync() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.snap = c.rules
	for _, d := range c.seats {
		c.own.c.add(&d.c)
		d.c = Counters{}
		if d.next != nil {
			d.sit(d.next)
			d.next = nil
		}
	}
}

// Counters returns a snapshot of the per-condition counters.
func (c *Conditions) Counters() Counters {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.own.c
}

// String names the stack for experiment logs.
func (c *Conditions) String() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := fmt.Sprintf("faults(base=%s", c.own.base)
	if len(c.links) > 0 {
		s += fmt.Sprintf(", links=%d", len(c.links))
	}
	if c.group != nil {
		s += ", partitioned"
	}
	if c.delay != (Delay{}) {
		s += fmt.Sprintf(", delay=%d+U[0,%d]", c.delay.Fixed, c.delay.Jitter)
	}
	return s + ")"
}
