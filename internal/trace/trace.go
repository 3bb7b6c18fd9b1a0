// Package trace logs a run's protocol steps, node by node, and replays them.
// A step runs at one node over that node's view alone (Section 4.1), so a
// node's view is a pure function of its state before its first step and the
// ordered list of its own steps. A Recorder wraps a protocol.CoreFactory, so
// it logs on every engine and on the UDP node with no engine's help; Replay
// runs a node's log through a bare core and must rebuild the live view.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"sendforget/internal/peer"
	"sendforget/internal/protocol"
	"sendforget/internal/rng"
	"sendforget/internal/view"
)

// Step is one logged step at Node: a ReceiveBatch of Recv, or an
// InitiateBatch when Recv is nil. RNG is the state, before the step, of the
// generator it drew from (the node's own, or on seq the one all nodes share).
// The first step after an activation also carries the node's head, its state
// before that step: View, its view's slots, or Seeds, what the SeedView of a
// protocol.PerNode core, whose state is more than its view, received.
type Step struct {
	Node  peer.ID          `json:"node"`
	View  []peer.ID        `json:"view,omitempty"`
	Seeds []peer.ID        `json:"seeds,omitempty"`
	Recv  *protocol.Packet `json:"recv,omitempty"`
	RNG   [4]uint64        `json:"rng"`
}

// Recorder keeps one log per node of an n-node universe. A step appends only
// to its own node's log, so engines that step several nodes at once need no
// lock; read or reset a log only while its node is not stepping.
type Recorder struct{ logs [][]Step }

// NewRecorder returns an empty recorder for nodes 0..n-1.
func NewRecorder(n int) *Recorder { return &Recorder{logs: make([][]Step, n)} }

// Log returns node u's steps since its last Reset.
func (rec *Recorder) Log(u peer.ID) []Step { return rec.logs[u] }

// Reset empties node u's log, so that its next step logs a head. Call it
// when u joins again: a core that is not PerNode serves every node, and its
// SeedView is not told which one it seeds.
func (rec *Recorder) Reset(u peer.ID) { rec.logs[u] = nil }

// Wrap returns a factory whose cores run f's and log each step to rec. A
// protocol.PerNode core stays PerNode, so that each activation keeps its own.
func (rec *Recorder) Wrap(f protocol.CoreFactory) protocol.CoreFactory {
	return func() (protocol.StepCore, error) {
		c, err := f()
		if err != nil {
			return nil, err
		} else if _, ok := c.(protocol.PerNode); ok {
			return &perNode{core{StepCore: c, rec: rec}}, nil
		}
		return &core{StepCore: c, rec: rec}, nil
	}
}

// core is the recording decorator; seeds holds a PerNode activation's seeds
// until its first step logs them.
type core struct {
	protocol.StepCore
	rec   *Recorder
	seeds []peer.ID
}

// Unwrap returns the recorded core (see protocol.Unwrap).
func (c *core) Unwrap() protocol.StepCore { return c.StepCore }

func (c *core) InitiateBatch(lv *view.View, u peer.ID, r *rng.RNG, out *protocol.Outbox) (int, int, bool) {
	c.log(lv, u, r, nil)
	return c.StepCore.InitiateBatch(lv, u, r, out)
}

func (c *core) ReceiveBatch(lv *view.View, u peer.ID, pkt protocol.Packet, r *rng.RNG, out *protocol.Outbox) (bool, int) {
	kept := pkt
	kept.IDs = slices.Clone(pkt.IDs) // lent for the call only
	c.log(lv, u, r, &kept)
	return c.StepCore.ReceiveBatch(lv, u, pkt, r, out)
}

// log appends the step about to run at u, with u's head if the step is the
// first since the activation or a Reset.
func (c *core) log(lv *view.View, u peer.ID, r *rng.RNG, recv *protocol.Packet) {
	st := Step{Node: u, Recv: recv, RNG: r.State()}
	if c.seeds != nil { // only a PerNode core, which steps one node, writes it
		st.Seeds, c.seeds = c.seeds, nil
	} else if len(c.rec.logs[u]) == 0 {
		//lint:allow hotalloc a log keeps copies of what it records; a hot root reaches it only in a traced run
		st.View = make([]peer.ID, lv.Size())
		for i := range st.View {
			st.View[i] = lv.Slot(i)
		}
	}
	c.rec.logs[u] = append(c.rec.logs[u], st)
}

// perNode decorates a PerNode core for one activation.
type perNode struct{ core }

// PerNode forwards the wrapped core's marker.
func (*perNode) PerNode() {}

func (c *perNode) SeedView(lv *view.View, seeds []peer.ID) error {
	c.seeds = slices.Clone(seeds)
	return c.StepCore.SeedView(lv, seeds)
}

// Write writes every log as JSON Lines, node by node, one line per step.
func (rec *Recorder) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, lg := range rec.logs {
		for i := range lg {
			if err := enc.Encode(&lg[i]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Load reads logs that Write wrote, over nodes 0..n-1, into a recorder.
func Load(r io.Reader, n int) (*Recorder, error) {
	rec := NewRecorder(n)
	for dec := json.NewDecoder(r); ; {
		var st Step
		if err := dec.Decode(&st); err == io.EOF {
			return rec, nil
		} else if err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		} else if uint(st.Node) >= uint(n) {
			return nil, fmt.Errorf("trace: node %v outside [0, %d)", st.Node, n)
		}
		rec.logs[st.Node] = append(rec.logs[st.Node], st)
	}
}

// Replay rebuilds one node's view from its log, through bare cores from the
// factory the Recorder wrapped. It keeps its place: run again on the grown
// log, it runs only the new steps. After the log's Reset, start a new one.
type Replay struct {
	View *view.View // nil until the log has a head
	// Jumps counts the steps whose logged RNG state is not the state the
	// node's previous step left: 0 on an engine with a stream per node.
	Jumps int

	core protocol.StepCore
	r    rng.RNG
	done int
	out  protocol.Outbox
}

// Run applies lg's steps past those it has run. A step with a head starts
// the node afresh, from a new core.
func (p *Replay) Run(f protocol.CoreFactory, lg []Step) error {
	for _, st := range lg[p.done:] {
		if len(st.View) > 0 || st.Seeds != nil {
			c, err := f()
			if err != nil {
				return err
			}
			p.core, p.View = c, view.New(c.ViewSize())
			if st.Seeds == nil {
				*p.View = view.Wrap(slices.Clone(st.View))
			} else if err := c.SeedView(p.View, st.Seeds); err != nil {
				return fmt.Errorf("trace: node %v: %w", st.Node, err)
			}
		} else if p.View == nil {
			return fmt.Errorf("trace: node %v: a step before the head", st.Node)
		} else if p.r.State() != st.RNG {
			p.Jumps++
		}
		p.r = rng.FromState(st.RNG)
		p.out.Reset()
		if st.Recv == nil {
			p.core.InitiateBatch(p.View, st.Node, &p.r, &p.out)
		} else {
			p.core.ReceiveBatch(p.View, st.Node, *st.Recv, &p.r, &p.out)
		}
		p.done++
	}
	return nil
}
