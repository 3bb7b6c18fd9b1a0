package degreemc

import (
	"fmt"

	"sendforget/internal/markov"
)

// uniformizationHeadroom keeps every row of the uniformized chain with a
// positive self-loop, which guarantees aperiodicity and damps power
// iteration oscillation.
const uniformizationHeadroom = 1.1

// chainTemplate is the degree MC's one chain builder. The sparsity pattern
// of the chain does not depend on the mean-field values — only the edge
// weights do — so the pattern is enumerated once into CSR form and rewrite
// fills in the weights for a field. The fixed-point iteration rewrites the
// same template every outer round; BuildChain and Transient rewrite a fresh
// one once.
type chainTemplate struct {
	sp  *Space
	csr *markov.CSR
	// self[k] is the slot index (within row k) of the self-loop entry that
	// absorbs the uniformization remainder.
	self []int
	// totals is scratch for per-row rate sums between the two rewrite passes.
	totals []float64
}

// templateProbe is a mean-field point with every probability strictly inside
// (0, 1), so that every structurally possible transition has a positive rate
// and appears in the union pattern. Real fields can only zero a subset of
// these rates (they share the Params, hence the loss rate), never add edges.
var templateProbe = Field{PFull: 0.5, Gap: 1, PDup: 0.5}

// newChainTemplate enumerates the union transition pattern of sp (plus a
// reserved self-loop per row) and finalizes it into CSR form.
func (sp *Space) newChainTemplate() (*chainTemplate, error) {
	n := sp.Len()
	s := markov.NewSparse(n)
	for k, st := range sp.states {
		sp.transitions(st, templateProbe, func(to State, rate float64, _ Kind) {
			if idx, ok := sp.index[to]; ok {
				s.Add(k, idx, rate)
			}
		})
		s.Add(k, k, 1) // reserve the self-loop slot
	}
	t := &chainTemplate{
		sp:     sp,
		csr:    s.Finalize(),
		self:   make([]int, n),
		totals: make([]float64, n),
	}
	for k := 0; k < n; k++ {
		cols, _ := t.csr.Row(k)
		t.self[k] = -1
		for slot, c := range cols {
			if int(c) == k {
				t.self[k] = slot
				break
			}
		}
		if t.self[k] < 0 {
			return nil, fmt.Errorf("degreemc: row %d lost its self-loop slot", k)
		}
	}
	return t, nil
}

// rewrite recomputes the uniformized transition probabilities for field f
// into the template's weight slots and returns the uniformization constant
// w: raw rates are accumulated per edge, w is the maximum row total times
// the headroom, every rate is divided by w, and each row's missing mass
// becomes its self-loop.
//
// A raw rate r (as emitted by transitions, with the common 1/(s(s-1))
// dropped) means the event fires with probability r/(n s(s-1)) per global
// action, i.e. r/(s(s-1)) per round of n actions. Dividing by w makes one
// chain step span s(s-1)/w rounds — independent of the state, which is what
// makes the time change exact.
func (t *chainTemplate) rewrite(f Field) (float64, error) {
	sp := t.sp
	maxRow := 0.0
	var missing bool
	for k, st := range sp.states {
		cols, probs := t.csr.Row(k)
		for i := range probs {
			probs[i] = 0
		}
		total := 0.0
		sp.transitions(st, f, func(to State, rate float64, _ Kind) {
			idx, ok := sp.index[to]
			if !ok {
				return
			}
			slot := findCol(cols, int32(idx))
			if slot < 0 {
				missing = true
				return
			}
			probs[slot] += rate
			total += rate
		})
		t.totals[k] = total
		if total > maxRow {
			maxRow = total
		}
	}
	if missing {
		return 0, fmt.Errorf("degreemc: field emitted a transition outside the template pattern")
	}
	if maxRow == 0 {
		return 0, fmt.Errorf("degreemc: chain has no transitions")
	}
	w := maxRow * uniformizationHeadroom
	for k := range t.totals {
		_, probs := t.csr.Row(k)
		for i := range probs {
			probs[i] /= w
		}
		probs[t.self[k]] += 1 - t.totals[k]/w
	}
	return w, nil
}

// BuildChain uniformizes the rates under field f into a stochastic chain
// over sp's states. Edges of the pattern that f switches off stay in the
// chain at weight 0.
func (sp *Space) BuildChain(f Field) (*markov.CSR, error) {
	t, err := sp.newChainTemplate()
	if err != nil {
		return nil, err
	}
	if _, err := t.rewrite(f); err != nil {
		return nil, err
	}
	return t.csr, nil
}

// findCol locates col in a sorted row by binary search.
func findCol(cols []int32, col int32) int {
	lo, hi := 0, len(cols)
	for lo < hi {
		mid := (lo + hi) / 2
		if cols[mid] < col {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(cols) && cols[lo] == col {
		return lo
	}
	return -1
}
