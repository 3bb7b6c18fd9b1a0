// Package globalmc builds the *exact* global Markov chain of Section 7.1 —
// the chain G(s, dL, l) whose states are entire membership graphs and whose
// transitions are S&F actions — for systems small enough to enumerate.
//
// The paper analyzes this chain abstractly (Lemmas 7.1-7.6); here it is
// materialized: states are enumerated by breadth-first closure from an
// initial membership graph, transition probabilities follow Proposition 5.2
// (each ordered pair of view slots of each node is equally likely), loss
// branches each action, and — as in the paper — transitions into partitioned
// membership graphs are replaced by self-loops ("Since partitioned states
// are excluded from G, we replace the edges leading to them from states in
// G by self-loops").
//
// With the chain in hand, the paper's structural lemmas become checkable
// facts: Lemma 7.1 (strong connectivity for 0 < l < 1), Lemma 7.2 (unique
// stationary distribution), Lemma 7.5 (uniform stationary distribution over
// the lossless sum-degree manifold), and Lemma 7.6 (every id v != u equally
// likely to appear in u's view).
package globalmc

import (
	"fmt"

	"sendforget/internal/markov"
)

// Params parameterizes the global chain. Unlike the protocol Config, S and
// DL are only required to be even and consistent (the s >= 6, dL <= s-6
// constraints in the paper serve the reachability *proof*, not the chain's
// definition), because exact enumeration is only feasible for tiny systems.
type Params struct {
	// N is the number of nodes (enumeration is exponential in N; 3 or 4).
	N int
	// S is the view size (even, >= 2).
	S int
	// DL is the duplication threshold (even, 0 <= DL < S).
	DL int
	// Loss is the uniform message loss rate in [0, 1).
	Loss float64
}

func (p Params) validate() error {
	if p.N < 2 || p.N > 5 {
		return fmt.Errorf("globalmc: n must be in [2, 5] for exact enumeration, got %d", p.N)
	}
	if p.S < 2 || p.S%2 != 0 {
		return fmt.Errorf("globalmc: s must be even >= 2, got %d", p.S)
	}
	if p.DL < 0 || p.DL >= p.S || p.DL%2 != 0 {
		return fmt.Errorf("globalmc: dL must be even in [0, s), got %d", p.DL)
	}
	if p.Loss < 0 || p.Loss >= 1 {
		return fmt.Errorf("globalmc: loss must be in [0, 1), got %v", p.Loss)
	}
	return nil
}

// State is a full membership graph: Mult[u][v] is the multiplicity of v in
// u's view (v may equal u: self-edges arise when a node's own id is gossiped
// back to it). Slot positions are irrelevant to the chain because S&F
// selects slots uniformly; the multiset determines all probabilities.
type State struct {
	Mult [][]uint8
}

// NewState returns an empty n-node state.
func NewState(n int) State {
	m := make([][]uint8, n)
	for u := range m {
		m[u] = make([]uint8, n)
	}
	return State{Mult: m}
}

// Circulant returns the initial state where node u's view holds
// u+1, ..., u+d (mod n) — the same bootstrap the protocol uses.
func Circulant(n, d int) State {
	st := NewState(n)
	for u := 0; u < n; u++ {
		for k := 1; k <= d; k++ {
			st.Mult[u][(u+k)%n]++
		}
	}
	return st
}

// clone deep-copies the state.
func (st State) clone() State {
	c := NewState(len(st.Mult))
	for u := range st.Mult {
		copy(c.Mult[u], st.Mult[u])
	}
	return c
}

// key encodes the state for map lookup.
func (st State) key() string {
	n := len(st.Mult)
	b := make([]byte, 0, n*n)
	for _, row := range st.Mult {
		b = append(b, row...)
	}
	return string(b)
}

// Outdegree returns d(u).
func (st State) Outdegree(u int) int {
	d := 0
	for _, m := range st.Mult[u] {
		d += int(m)
	}
	return d
}

// weaklyConnected reports whether the membership graph is weakly connected;
// partitioned states are excluded from the chain per Section 7.1. It runs a
// small union-find directly on the multiplicity matrix — this check runs
// once per enumerated transition outcome, so it must not allocate a full
// graph.
func (st State) weaklyConnected() bool {
	n := len(st.Mult)
	if n == 0 {
		return true
	}
	var parent [5]int // Params caps N at 5
	for i := 0; i < n; i++ {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	comps := n
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u == v || st.Mult[u][v] == 0 {
				continue
			}
			ru, rv := find(u), find(v)
			if ru != rv {
				parent[ru] = rv
				comps--
			}
		}
	}
	return comps == 1
}

// Chain is the materialized global MC.
type Chain struct {
	par    Params
	states []State
	index  map[string]int
	mc     *markov.CSR
	// PartitionClipped counts transition probability mass redirected to
	// self-loops because the target state was partitioned.
	PartitionClipped float64
}

// Build enumerates the reachable state space from the initial state and
// assembles the transition matrix. The initial state must be weakly
// connected.
func Build(par Params, initial State) (*Chain, error) {
	if err := par.validate(); err != nil {
		return nil, err
	}
	if len(initial.Mult) != par.N {
		return nil, fmt.Errorf("globalmc: initial state has %d nodes, want %d", len(initial.Mult), par.N)
	}
	for u := 0; u < par.N; u++ {
		if d := initial.Outdegree(u); d > par.S || d%2 != 0 {
			return nil, fmt.Errorf("globalmc: initial outdegree of node %d is %d (s=%d)", u, d, par.S)
		}
	}
	if !initial.weaklyConnected() {
		return nil, fmt.Errorf("globalmc: initial state is not weakly connected")
	}
	c := &Chain{par: par, index: make(map[string]int)}
	c.add(initial)
	// BFS closure: process states in discovery order; transitions append
	// new states to c.states.
	type row struct {
		from int
		to   map[int]float64
		self float64
	}
	var rows []row
	for i := 0; i < len(c.states); i++ {
		r := row{from: i, to: make(map[int]float64)}
		c.transitions(c.states[i], func(next State, p float64) {
			if !next.weaklyConnected() {
				c.PartitionClipped += p
				r.self += p
				return
			}
			j := c.add(next)
			if j == i {
				r.self += p
			} else {
				r.to[j] += p
			}
		}, func(selfLoop float64) {
			r.self += selfLoop
		})
		rows = append(rows, r)
	}
	mc := markov.NewSparse(len(c.states))
	for _, r := range rows {
		for j, p := range r.to {
			mc.Add(r.from, j, p)
		}
		if r.self > 0 {
			mc.Add(r.from, r.from, r.self)
		}
	}
	c.mc = mc.Finalize()
	if err := markov.Validate(c.mc); err != nil {
		return nil, fmt.Errorf("globalmc: assembled chain invalid: %w", err)
	}
	return c, nil
}

// add interns a state and returns its index.
func (c *Chain) add(st State) int {
	k := st.key()
	if i, ok := c.index[k]; ok {
		return i
	}
	i := len(c.states)
	c.index[k] = i
	c.states = append(c.states, st.clone())
	return i
}

// transitions enumerates the outcome distribution of one uniformly random
// S&F action from st. emit receives state-changing outcomes; selfLoop
// receives the aggregated probability of outcomes that leave st unchanged.
func (c *Chain) transitions(st State, emit func(State, float64), selfLoop func(float64)) {
	par := c.par
	n := par.N
	s := par.S
	pairTotal := float64(s * (s - 1))
	loopMass := 0.0
	for u := 0; u < n; u++ {
		pNode := 1.0 / float64(n)
		d := st.Outdegree(u)
		empties := s - d
		// P(at least one selected slot empty): ordered pairs where slot i
		// or slot j is empty.
		emptyPairs := float64(empties*(s-1) + d*empties)
		loopMass += pNode * emptyPairs / pairTotal
		if d < 2 {
			continue
		}
		dup := d <= par.DL
		for a := 0; a < n; a++ { // target id (first selected slot)
			ma := int(st.Mult[u][a])
			if ma == 0 {
				continue
			}
			for b := 0; b < n; b++ { // payload id (second selected slot)
				mb := int(st.Mult[u][b])
				if b == a {
					mb--
				}
				if mb <= 0 {
					continue
				}
				pPair := pNode * float64(ma*mb) / pairTotal
				// Sender step: clear unless duplication.
				base := st
				if !dup {
					base = st.clone()
					base.Mult[u][a]--
					base.Mult[u][b]--
				}
				// Lost branch.
				if par.Loss > 0 {
					c.emitOrLoop(st, base, pPair*par.Loss, emit, &loopMass)
				}
				// Delivered branch: receiver a gets [u, b].
				pDel := pPair * (1 - par.Loss)
				if pDel > 0 {
					recv := base.clone()
					if recv.Outdegree(a) >= s {
						// Full view: deletion; state is base.
						c.emitOrLoop(st, base, pDel, emit, &loopMass)
					} else {
						recv.Mult[a][u]++
						recv.Mult[a][b]++
						c.emitOrLoop(st, recv, pDel, emit, &loopMass)
					}
				}
			}
		}
	}
	selfLoop(loopMass)
}

// emitOrLoop routes an outcome either to emit or, if it equals the origin
// state, into the self-loop mass.
func (c *Chain) emitOrLoop(origin, next State, p float64, emit func(State, float64), loopMass *float64) {
	if p <= 0 {
		return
	}
	if next.key() == origin.key() {
		*loopMass += p
		return
	}
	emit(next, p)
}

// Len returns the number of reachable (non-partitioned) states.
func (c *Chain) Len() int { return len(c.states) }

// States returns the state list (do not mutate).
func (c *Chain) States() []State { return c.states }

// MC returns the transition chain.
func (c *Chain) MC() *markov.CSR { return c.mc }

// Stationary computes the chain's stationary distribution.
func (c *Chain) Stationary(tol float64, maxIter int) ([]float64, error) {
	pi, _, err := markov.Stationary(c.mc, nil, tol, maxIter)
	return pi, err
}

// EdgeProbability returns P(v in u.lv) under the distribution pi —
// the quantity Lemma 7.6 proves equal for all v != u.
func (c *Chain) EdgeProbability(pi []float64, u, v int) float64 {
	p := 0.0
	for i, st := range c.states {
		if st.Mult[u][v] > 0 {
			p += pi[i]
		}
	}
	return p
}
