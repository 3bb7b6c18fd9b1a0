// Package markov provides the finite Markov chain machinery of Section 3.2:
// one transition-matrix type (compressed sparse rows, assembled through the
// Sparse builder), stationary distributions by power iteration, and the
// ergodicity checks (irreducibility via strongly connected components,
// aperiodicity via the cycle-length gcd) that the paper's Lemmas 7.1-7.2
// establish for the global S&F chain.
package markov

import (
	"fmt"
	"math"
	"slices"
)

// Sparse assembles a chain as per-row adjacency lists of positive
// transitions. It is a builder only: Finalize turns it into the CSR form
// every algorithm of this package takes.
type Sparse struct {
	rows  [][]entry
	dirty bool
}

type entry struct {
	col int
	p   float64
}

// NewSparse returns an n-state chain with no transitions.
func NewSparse(n int) *Sparse {
	return &Sparse{rows: make([][]entry, n)}
}

// Add accumulates probability p onto transition (i -> j). Multiple Adds to
// the same pair sum, which lets builders enumerate disjoint events
// independently. Add is O(1): duplicates are appended and merged later by
// compact (called by CloseRows and Finalize), so building a row of L
// entries costs O(L log L) total rather than the O(L^2) of a per-Add
// duplicate scan.
func (s *Sparse) Add(i, j int, p float64) {
	if p == 0 {
		return
	}
	if p < 0 || math.IsNaN(p) {
		panic(fmt.Sprintf("markov: invalid transition probability %v", p))
	}
	if j < 0 || j >= len(s.rows) {
		panic(fmt.Sprintf("markov: column %d outside chain of %d states", j, len(s.rows)))
	}
	s.rows[i] = append(s.rows[i], entry{col: j, p: p})
	s.dirty = true
}

// compact sorts every row by column and merges duplicate entries, restoring
// the one-entry-per-pair invariant after a sequence of Adds. It is
// idempotent and cheap when nothing was added since the last call. Rows are
// merged through a dense column accumulator, so a row built from L Adds over
// D distinct columns costs O(L + D log D).
func (s *Sparse) compact() {
	if !s.dirty {
		return
	}
	var acc []float64
	var touched []int
	for i, row := range s.rows {
		if len(row) < 2 {
			continue
		}
		sorted := true
		for k := 1; k < len(row); k++ {
			if row[k].col <= row[k-1].col {
				sorted = false
				break
			}
		}
		if sorted {
			continue
		}
		if acc == nil {
			acc = make([]float64, len(s.rows))
		}
		touched = touched[:0]
		for _, e := range row {
			if acc[e.col] == 0 {
				touched = append(touched, e.col)
			}
			acc[e.col] += e.p
		}
		slices.Sort(touched)
		row = row[:0]
		for _, c := range touched {
			row = append(row, entry{col: c, p: acc[c]})
			acc[c] = 0
		}
		s.rows[i] = row
	}
	s.dirty = false
}

// CloseRows tops up each row's missing probability mass as a self-loop,
// making the chain stochastic. Builders that enumerate only the
// state-changing events call it once at the end (the remainder is exactly
// the chain's self-loop probability). It returns an error if any row
// already exceeds probability 1 beyond tolerance.
func (s *Sparse) CloseRows() error {
	const tol = 1e-9
	s.compact()
	for i, row := range s.rows {
		sum := 0.0
		for _, e := range row {
			sum += e.p
		}
		if sum > 1+tol {
			return fmt.Errorf("markov: row %d has probability mass %v > 1", i, sum)
		}
		if rem := 1 - sum; rem > 0 {
			s.Add(i, i, rem)
		}
	}
	s.compact()
	return nil
}

// Finalize compacts s and converts it to CSR form. The Sparse remains valid
// and shares no memory with the result.
func (s *Sparse) Finalize() *CSR {
	s.compact()
	n := len(s.rows)
	nnz := 0
	for _, row := range s.rows {
		nnz += len(row)
	}
	m := &CSR{
		n:      n,
		rowPtr: make([]int32, n+1),
		cols:   make([]int32, 0, nnz),
		probs:  make([]float64, 0, nnz),
	}
	for i, row := range s.rows {
		m.rowPtr[i] = int32(len(m.cols))
		for _, e := range row {
			m.cols = append(m.cols, int32(e.col))
			m.probs = append(m.probs, e.p)
		}
	}
	m.rowPtr[n] = int32(len(m.cols))
	return m
}
