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

// Conditions is a composable network-condition stack. The zero value is not
// usable; construct with New or Lossless. Safe for concurrent use: the
// runtime's network consults it from handler goroutines while tests
// partition and heal it.
//
// Decision order is fixed and substrate-independent: partition check
// (structural, no RNG draw), then the per-link override model if one is
// registered for the (from, to) link, otherwise the base model, then delay
// assignment (one extra draw only when Jitter > 0). Keeping the draw
// sequence identical on both substrates is what makes seeded cross-substrate
// comparisons meaningful.
type Conditions struct {
	mu    sync.Mutex
	base  loss.Model
	links map[Link]loss.Model
	group []int32 // nil when healed; group[id] is id's group, -1 when listed in none
	delay Delay
	c     Counters
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
	return &Conditions{base: loss.None{}}
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
	return c.base
}

// SetBase swaps the base loss model live — the management API's loss-reload
// path. Per-link overrides, partitions, delay, and all counters are
// untouched; only the base model changes, taking effect on the next
// decision. Swapping a stateful model resets its state by construction (the
// caller built a fresh model), which is the intended semantics of a reload.
func (c *Conditions) SetBase(m loss.Model) error {
	if m == nil {
		return fmt.Errorf("faults: nil base loss model")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.base = m
	return nil
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
	return c.base.Rate()
}

// SetLinkLoss installs (or, with a nil model, removes) a loss override for
// the directed link from -> to. Overridden links bypass the base model
// entirely, so asymmetric and per-destination scenarios compose with any
// base model.
func (c *Conditions) SetLinkLoss(from, to peer.ID, m loss.Model) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if m == nil {
		delete(c.links, Link{From: from, To: to})
		return
	}
	if c.links == nil {
		c.links = make(map[Link]loss.Model)
	}
	c.links[Link{From: from, To: to}] = m
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
	c.c.Partitions++
}

// Heal removes the active partition.
func (c *Conditions) Heal() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.group != nil {
		c.group = nil
		c.c.Heals++
	}
}

// Partitioned reports whether an active partition separates from and to.
func (c *Conditions) Partitioned(from, to peer.ID) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.separated(from, to)
}

// separated implements the partition check. Callers hold c.mu.
func (c *Conditions) separated(from, to peer.ID) bool {
	if c.group == nil {
		return false
	}
	return c.groupOf(from) != c.groupOf(to)
}

// groupOf returns id's group in the active partition, -1 for an id listed in
// no group (negative ids and ids past the table among them).
func (c *Conditions) groupOf(id peer.ID) int32 {
	if uint(id) < uint(len(c.group)) {
		return c.group[id]
	}
	return -1
}

// Decide rules on one attempted transmission from -> to, advancing any
// stateful models and drawing from r in the documented order. The caller
// supplies its own RNG so each substrate keeps its deterministic stream.
func (c *Conditions) Decide(from, to peer.ID, r *rng.RNG) Verdict {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.decideLocked(from, to, r)
}

// decideLocked implements the decision order. Callers hold c.mu.
func (c *Conditions) decideLocked(from, to peer.ID, r *rng.RNG) Verdict {
	c.c.Decisions++
	if c.separated(from, to) {
		c.c.PartitionDrops++
		return Verdict{Drop: DropPartition}
	}
	if m, ok := c.links[Link{From: from, To: to}]; ok {
		if lostTo(m, to, r) {
			c.c.LinkDrops++
			return Verdict{Drop: DropLink}
		}
	} else if lostTo(c.base, to, r) {
		c.c.ModelDrops++
		return Verdict{Drop: DropModel}
	}
	d := c.delay.Fixed
	if c.delay.Jitter > 0 {
		d += r.Intn(c.delay.Jitter + 1)
	}
	if d > 0 {
		c.c.Delayed++
	}
	return Verdict{Delay: d}
}

// A Session is a single-owner decision pass over the stack: Begin acquires
// the lock once and Close releases it, so a routing loop ruling on tens of
// thousands of messages per round pays the synchronization cost once
// instead of per message. Begin also pre-resolves the base model's
// destination-aware interface and notes whether any link overrides or an
// active partition exist, so the common uniform-loss configuration decides
// each message with one model call and a couple of branches.
//
// While a session is open every other Conditions method blocks; the owner
// must Close before calling them. Session.Decide draws from r in exactly
// the order the method form does, so seeded decision streams are unchanged.
type Session struct {
	c      *Conditions
	dest   loss.DestinationModel // base pre-asserted, nil if not destination-aware
	simple bool                  // no link overrides and no active partition
}

// Begin opens a decision session, holding the stack's lock until Close.
func (c *Conditions) Begin() Session {
	c.mu.Lock()
	dm, _ := c.base.(loss.DestinationModel)
	return Session{c: c, dest: dm, simple: len(c.links) == 0 && c.group == nil}
}

// Decide is Conditions.Decide without the per-call lock; see Begin.
func (s *Session) Decide(from, to peer.ID, r *rng.RNG) Verdict {
	c := s.c
	if !s.simple {
		return c.decideLocked(from, to, r)
	}
	c.c.Decisions++
	var lost bool
	if s.dest != nil {
		lost = s.dest.LostTo(to, r)
	} else {
		lost = c.base.Lost(r)
	}
	if lost {
		c.c.ModelDrops++
		return Verdict{Drop: DropModel}
	}
	d := c.delay.Fixed
	if c.delay.Jitter > 0 {
		d += r.Intn(c.delay.Jitter + 1)
	}
	if d > 0 {
		c.c.Delayed++
	}
	return Verdict{Delay: d}
}

// Close ends the session, releasing the stack.
func (s *Session) Close() { s.c.mu.Unlock() }

// lostTo consults a model, routing through the destination-aware interface
// when the model implements it (loss.PerDest keeps working under the
// condition stack exactly as it did under the engine's direct path).
func lostTo(m loss.Model, to peer.ID, r *rng.RNG) bool {
	if dm, ok := m.(loss.DestinationModel); ok {
		return dm.LostTo(to, r)
	}
	return m.Lost(r)
}

// Counters returns a snapshot of the per-condition counters.
func (c *Conditions) Counters() Counters {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.c
}

// String names the stack for experiment logs.
func (c *Conditions) String() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := fmt.Sprintf("faults(base=%s", c.base)
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
