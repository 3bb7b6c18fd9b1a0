// Package faults is the composable network-condition layer shared by the
// two execution substrates: the in-memory transport.Network of the
// concurrent runtime and the sequential engine both consult one Conditions
// instance per run, so fault injection behaves identically — decision order
// and RNG draws — no matter which substrate carries the traffic.
//
// The paper's analysis (Section 4) assumes uniform i.i.d. loss. Conditions
// generalizes that single knob into the failure modes real deployments see
// and related systems are evaluated against (Cyclon under burst loss,
// HyParView under partitions): a stateful base loss model (e.g.
// Gilbert-Elliott bursts), dynamic partitions with healing, and
// fixed/jittered delivery delay that reorders messages. Each verdict names
// the condition that dropped or delayed the message; the substrate's router
// counts it once, in metrics.Traffic.
package faults

import (
	"fmt"
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
	// DropPartition is a structural drop across an active partition.
	DropPartition
)

func (d Drop) String() string {
	switch d {
	case DropNone:
		return "none"
	case DropModel:
		return "model"
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

// Delay configures delivery latency in substrate rounds: every surviving
// message is held for Fixed rounds plus a uniform jitter in [0, Jitter].
// Jitter > 0 reorders messages (a later send can outrun an earlier one),
// which is exactly the nonatomicity Section 4.1's step model permits.
type Delay struct {
	Fixed  int
	Jitter int
}

// Counters tallies the stack's topology changes. Per-message outcomes are
// counted where the verdicts are acted on, in the router's metrics.Traffic.
type Counters struct {
	Partitions int
	Heals      int
}

// Conditions is a composable network-condition stack. The zero value is not
// usable; construct with New or Lossless. Safe for concurrent use: the
// runtime's network consults it from handler goroutines while tests
// partition and heal it.
//
// Decision order is fixed and substrate-independent: partition check
// (structural, no RNG draw), then the base model, then delay assignment (one
// extra draw only when Jitter > 0). The order is written once, in
// rules.decide; Decide, Session.Decide and Decider.Decide are three ways of
// reaching it.
type Conditions struct {
	mu     sync.Mutex
	rules             // the live configuration, written by the setters
	base   loss.Model // what Decide and Session.Decide advance
	counts Counters
	snap   rules // what attached deciders read; rewritten by Sync
	seats  []*Decider
}

// rules is the configuration a decision reads, the base model aside (a
// decision is handed the instance it advances). Nothing reachable from it is
// written in place once installed — Partition installs a fresh table — so
// a copy of the struct taken under mu is a snapshot that stays valid, and
// readable without the lock, while the stack is reconfigured.
type rules struct {
	group []int32 // nil when healed; group[id] is id's group, -1 when listed in none
	delay Delay
}

// New builds a condition stack over the given base loss model.
func New(base loss.Model) (*Conditions, error) {
	if base == nil {
		return nil, fmt.Errorf("faults: nil base loss model")
	}
	return &Conditions{base: base}, nil
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

// SetBase swaps the base loss model live — the management API's loss-reload
// path. Partitions, delay, and all counters are untouched; only the base
// model changes, taking effect on the next decision (for attached deciders,
// on the next Sync, each with a fresh fork of a stateful model). Swapping a
// stateful model resets its state by construction (the caller built a fresh
// model), which is the intended semantics of a reload.
func (c *Conditions) SetBase(m loss.Model) error {
	if m == nil {
		return fmt.Errorf("faults: nil base loss model")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.base = m
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

// Rate returns the base model's long-run loss rate (partitions add to the
// realized rate; experiments read the realized rate from the traffic
// counters instead).
func (c *Conditions) Rate() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.base.Rate()
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
	c.counts.Partitions++
}

// Heal removes the active partition.
func (c *Conditions) Heal() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.group != nil {
		c.group = nil
		c.counts.Heals++
	}
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
// on one attempted transmission from -> to under ru, advancing base and
// drawing from r. Without a partition it costs one branch before its one
// model call.
func (ru *rules) decide(base loss.Model, from, to peer.ID, r *rng.RNG) Verdict {
	if ru.separated(from, to) {
		return Verdict{Drop: DropPartition}
	}
	if base.Lost(to, r) {
		return Verdict{Drop: DropModel}
	}
	d := ru.delay.Fixed
	if ru.delay.Jitter > 0 {
		d += r.Intn(ru.delay.Jitter + 1)
	}
	return Verdict{Delay: d}
}

// Decide rules on one attempted transmission from -> to, advancing any
// stateful models and drawing from r in the documented order. The caller
// supplies its own RNG so each substrate keeps its deterministic stream.
func (c *Conditions) Decide(from, to peer.ID, r *rng.RNG) Verdict {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.decide(c.base, from, to, r)
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
	return s.c.decide(s.c.base, from, to, r)
}

// Close ends the session, releasing the stack.
func (s *Session) Close() { s.c.mu.Unlock() }

// A Decider is one of several streams ruling against the stack in parallel —
// the sharded engine attaches one per shard. It decides without the lock,
// against the snapshot of the configuration the last Sync took, with a
// verdict stream of its own and its own fork of a stateful base model, so a
// Gilbert-Elliott burst is a burst over the messages this decider sees.
// Between two Syncs a decider belongs to one goroutine at a time; everything
// it writes per message lives in the value itself or in its own fork, so
// deciders embedded in their owners' records share no cache line. The zero
// value is ready for Attach.
type Decider struct {
	ru   *rules
	r    rng.RNG
	base loss.Model
	next loss.Model // base model to seat at the next Sync; guarded by the stack's mu
	p    float64    // a plain configuration's loss rate, 0 if not plain; set by Sync
}

// Decide is Conditions.Decide against the last Sync's snapshot, drawing from
// the decider's own stream.
func (d *Decider) Decide(from, to peer.ID) Verdict {
	return d.ru.decide(d.base, from, to, &d.r)
}

// Plain rules on one message when the last Sync found the configuration
// plain — no partition, no delay, and a stateless uniform
// base model at a rate strictly between 0 and 1 — and then draws and decides
// exactly as Decide would: lost is its DropModel verdict, anything else its
// immediate delivery. For any other configuration ok is false and nothing
// is drawn; the caller asks Decide.
func (d *Decider) Plain() (lost, ok bool) {
	if d.p == 0 {
		return false, false
	}
	return d.r.Bernoulli(d.p), true
}

// plainRate is the rate Sync gives a decider ruling under ru with base model
// base: the rate of base's one trial when the decision is nothing more, 0
// otherwise.
func plainRate(ru *rules, base loss.Model) float64 {
	u, ok := base.(loss.Uniform)
	if !ok || ru.group != nil || ru.delay != (Delay{}) || !(u.P > 0 && u.P < 1) {
		return 0
	}
	return u.P
}

// Attach makes d a decider of this stack, with a verdict stream seeded by
// seed; it may decide after the next Sync.
func (c *Conditions) Attach(d *Decider, seed rng.Seed) {
	c.mu.Lock()
	defer c.mu.Unlock()
	d.ru = &c.snap
	d.r = rng.NewState(seed)
	d.next = fork(c.base)
	c.seats = append(c.seats, d)
}

// Sync hands the attached deciders the configuration as it stands, made by
// their owner while none of them is deciding: it becomes the snapshot they
// rule against, and a base model set since the last Sync is seated now. An
// engine calls it at the start of a tick, so that a setter called between
// two ticks takes effect on the very next one.
func (c *Conditions) Sync() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.snap = c.rules
	for _, d := range c.seats {
		if d.next != nil {
			d.base, d.next = d.next, nil
		}
		d.p = plainRate(&c.snap, d.base)
	}
}

// Counters returns a snapshot of the topology counters.
func (c *Conditions) Counters() Counters {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counts
}

// String names the stack for experiment logs.
func (c *Conditions) String() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := fmt.Sprintf("faults(base=%s", c.base)
	if c.group != nil {
		s += ", partitioned"
	}
	if c.delay != (Delay{}) {
		s += fmt.Sprintf(", delay=%d+U[0,%d]", c.delay.Fixed, c.delay.Jitter)
	}
	return s + ")"
}
