// Package degreemc implements the two-dimensional degree Markov chain of
// Section 6.2: the joint evolution of a single tagged node's outdegree d and
// indegree i under S&F with view size s, duplication threshold dL, and
// uniform loss rate l, for arbitrary n >> s.
//
// # States
//
// A state is (d, i) with d even and dL <= d <= s, i >= 0, and the sum degree
// d + 2i capped at SumCap (the paper uses 3s: "states with sum degrees close
// to 3s had negligible probabilities ... we consider sum degrees to be
// bounded by 3s, removing states with higher sum degrees from the MC and
// replacing edges leading to these states with self-loops").
//
// # Transition rates
//
// Exactly three kinds of global actions involve the tagged node u, and each
// occurs with probability Theta(1/n) per action, so the 1/n factor cancels
// from the balance equations and the chain can be built from O(1) *rates*
// and then uniformized. With the common factor 1/(s(s-1)) also dropped:
//
//   - u initiates an active action: rate d(d-1). The action duplicates iff
//     d = dL (Observation 5.1 keeps d >= dL). The message survives with
//     probability (1-l) and finds a non-full receiver with probability
//     (1-pFull), where the receiver is sampled proportionally to indegree
//     (a view entry points at a node with probability proportional to the
//     number of entries holding its id).
//   - u is the message target: its id occupied the first selected slot of
//     some sender x. Each of u's i in-edges lies in the view of a sender
//     whose outdegree is edge-size-biased; the per-edge rate is
//     E[d(x)-1 | edge] =: G (the second selected slot must be nonempty).
//     The sender duplicates with probability pDup, the edge-biased
//     probability that d(x) = dL given the action is active.
//   - u is the message payload: symmetric to the target case, rate i*G, with
//     the third-party receiver full with probability pFull.
//
// The resulting state changes (Figure 5.2 and Lemma 6.8):
//
//	initiator, no dup:  delivered&room -> (d-2, i+1); else (d-2, i)
//	initiator, dup:     delivered&room -> (d,   i+1); else self-loop
//	target,    no dup:  delivered&room -> (d+2, i-1); else (d, i-1)
//	target,    dup:     delivered&room -> (d+2, i  ); else self-loop
//	payload,   no dup:  delivered&room -> self;        else (d, i-1)
//	payload,   dup:     delivered&room -> (d, i+1);    else self-loop
//
// # Fixed point
//
// The mean-field quantities pFull, G, and pDup depend on the population
// degree distribution, which is what the chain computes — the circularity
// the paper resolves iteratively: "We therefore search the correct degree
// distributions iteratively, starting from an arbitrary one, computing the
// corresponding MC's stationary distribution and deriving from it the degree
// distributions, with which we start the next iteration."
package degreemc

import "fmt"

// State is a (outdegree, indegree) pair of the tagged node.
type State struct {
	Out, In int
}

// SumDegree returns d + 2*i (Definition 6.1).
func (st State) SumDegree() int { return st.Out + 2*st.In }

// Params parameterizes the degree MC.
type Params struct {
	// S is the view size (even, >= 6).
	S int
	// DL is the duplication threshold (even, 0 <= DL <= S-6).
	DL int
	// Loss is the uniform message loss rate l in [0, 1).
	Loss float64
	// SumCap bounds d + 2i; 0 selects the paper's 3*S.
	SumCap int
}

func (p Params) validate() error {
	if p.S < 6 || p.S%2 != 0 {
		return fmt.Errorf("degreemc: s must be even >= 6, got %d", p.S)
	}
	if p.DL < 0 || p.DL > p.S-6 || p.DL%2 != 0 {
		return fmt.Errorf("degreemc: dL must be even in [0, s-6], got %d", p.DL)
	}
	if p.Loss < 0 || p.Loss >= 1 {
		return fmt.Errorf("degreemc: loss must be in [0, 1), got %v", p.Loss)
	}
	if p.SumCap != 0 && p.SumCap < p.S {
		return fmt.Errorf("degreemc: sum cap %d below s=%d", p.SumCap, p.S)
	}
	return nil
}

func (p Params) sumCap() int {
	if p.SumCap == 0 {
		return 3 * p.S
	}
	return p.SumCap
}

// Space is the enumerated state space with index lookup.
type Space struct {
	par    Params
	states []State
	index  map[State]int
}

// NewSpace enumerates all valid states for par.
func NewSpace(par Params) (*Space, error) {
	if err := par.validate(); err != nil {
		return nil, err
	}
	sp := &Space{par: par, index: make(map[State]int)}
	cap := par.sumCap()
	for d := par.DL; d <= par.S; d += 2 {
		for i := 0; d+2*i <= cap; i++ {
			st := State{Out: d, In: i}
			sp.index[st] = len(sp.states)
			sp.states = append(sp.states, st)
		}
	}
	if len(sp.states) == 0 {
		return nil, fmt.Errorf("degreemc: empty state space for %+v", par)
	}
	return sp, nil
}

// Len returns the number of states.
func (sp *Space) Len() int { return len(sp.states) }

// States returns the state list (do not mutate).
func (sp *Space) States() []State { return sp.states }

// Index returns the index of st and whether it exists.
func (sp *Space) Index(st State) (int, bool) {
	i, ok := sp.index[st]
	return i, ok
}

// Field carries the mean-field quantities derived from the population
// distribution.
type Field struct {
	// PFull is the probability that a node sampled proportionally to
	// indegree (i.e. the node behind a random view entry) has a full view.
	PFull float64
	// Gap is G = E[d(x)-1] for a sender x sampled by edge size bias,
	// conditioned on holding the selected entry.
	Gap float64
	// PDup is the probability that such a sender's action duplicates
	// (d(x) = dL), weighted by action activity.
	PDup float64
}

// DeriveField computes the mean-field quantities from a population
// distribution rho over sp's states.
func (sp *Space) DeriveField(rho []float64) (Field, error) {
	if len(rho) != sp.Len() {
		return Field{}, fmt.Errorf("degreemc: rho length %d != states %d", len(rho), sp.Len())
	}
	var (
		edgeW, gapW, dupW float64 // sums over rho*out, rho*out*(out-1), same restricted to out=dL
		inW, inFullW      float64 // sums over rho*in, restricted to out=s
	)
	for k, st := range sp.states {
		p := rho[k]
		if p == 0 {
			continue
		}
		out := float64(st.Out)
		in := float64(st.In)
		edgeW += p * out
		gapW += p * out * (out - 1)
		if st.Out == sp.par.DL {
			dupW += p * out * (out - 1)
		}
		inW += p * in
		if st.Out == sp.par.S {
			inFullW += p * in
		}
	}
	f := Field{}
	if edgeW > 0 {
		f.Gap = gapW / edgeW
	}
	if gapW > 0 {
		f.PDup = dupW / gapW
	}
	if inW > 0 {
		f.PFull = inFullW / inW
	}
	return f, nil
}

// Kind classifies a transition for Figure 6.2: Atomic transitions occur with
// atomic actions (no loss, duplication, or deletion — solid lines); the rest
// occur due to loss, duplications, or deletions (dashed lines).
type Kind uint8

// Transition kinds.
const (
	Atomic Kind = iota
	NonAtomic
)

// Transition is one positive-rate edge of the chain, exposed for Figure 6.2
// and for white-box tests.
type Transition struct {
	From, To State
	Rate     float64
	Kind     Kind
}

// transitions enumerates the state-changing transitions out of st under
// field f (self-loops omitted; rates carry the common 1/(s(s-1)) dropped).
func (sp *Space) transitions(st State, f Field, emit func(to State, rate float64, kind Kind)) {
	par := sp.par
	cap := par.sumCap()
	d, i := st.Out, st.In
	loss := par.Loss
	// clip redirects transitions exceeding the sum cap to self-loops by
	// dropping them (the template's rewrite gives each row's missing mass to
	// its self-loop).
	clip := func(to State, rate float64, kind Kind) {
		if rate <= 0 {
			return
		}
		if to.SumDegree() > cap {
			return
		}
		if to == st {
			return
		}
		emit(to, rate, kind)
	}

	// Tagged node initiates an active action.
	if d >= 2 {
		w := float64(d * (d - 1))
		pOK := (1 - loss) * (1 - f.PFull) // delivered to non-full receiver
		if d == par.DL {
			// Duplication: entries kept; delivery creates a new in-edge.
			clip(State{d, i + 1}, w*pOK, NonAtomic)
		} else {
			clip(State{d - 2, i + 1}, w*pOK, Atomic)
			clip(State{d - 2, i}, w*(1-pOK), NonAtomic)
		}
	}

	// Tagged node is the target or the payload of another node's action.
	if i >= 1 {
		w := float64(i) * f.Gap

		// Target: u receives [x, w] (or the message is lost).
		if d < par.S {
			clip(State{d + 2, i - 1}, w*(1-f.PDup)*(1-loss), Atomic)
			clip(State{d, i - 1}, w*(1-f.PDup)*loss, NonAtomic)
			clip(State{d + 2, i}, w*f.PDup*(1-loss), NonAtomic)
		} else {
			// Full target: delivery deletes the ids; either way the
			// non-duplicating sender cleared its entry for u.
			clip(State{d, i - 1}, w*(1-f.PDup), NonAtomic)
		}

		// Payload: an instance of u's id moves between third parties.
		pKeep := (1 - loss) * (1 - f.PFull)
		clip(State{d, i - 1}, w*(1-f.PDup)*(1-pKeep), NonAtomic)
		clip(State{d, i + 1}, w*f.PDup*pKeep, NonAtomic)
	}
}

// Transitions returns all state-changing transitions under field f.
func (sp *Space) Transitions(f Field) []Transition {
	var out []Transition
	for _, st := range sp.states {
		from := st
		sp.transitions(st, f, func(to State, rate float64, kind Kind) {
			out = append(out, Transition{From: from, To: to, Rate: rate, Kind: kind})
		})
	}
	return out
}
