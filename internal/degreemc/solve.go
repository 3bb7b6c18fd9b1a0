package degreemc

import (
	"fmt"
	"sync"

	"sendforget/internal/markov"
	"sendforget/internal/stats"
)

// SolveOptions tune the fixed-point computation. The zero value selects
// defaults suitable for the paper's parameter ranges.
type SolveOptions struct {
	// InitOut/InitIn seed the first population distribution with a point
	// mass. Both zero selects (dL+s)/2 rounded to even, with matching
	// indegree (sum degree 3d as in Section 6.1's initialization).
	InitOut, InitIn int
	// InnerTol is the power-iteration total-variation tolerance
	// (default 1e-11).
	InnerTol float64
	// OuterTol is the fixed-point tolerance on successive stationary
	// distributions (default 1e-9). The runtime's oracle tests loosen both
	// tolerances, which makes each of their solves about four times cheaper.
	OuterTol float64
}

const (
	// innerMaxIter bounds power iterations per outer round.
	innerMaxIter = 400000
	// outerMaxIter bounds fixed-point rounds.
	outerMaxIter = 200
	// damping is the mixing weight of the new stationary distribution into
	// the running iterate. The undamped iteration (1.0) can oscillate
	// between two field regimes; 0.5 collapses the 2-cycle onto the
	// physical fixed point.
	damping = 0.5
)

func (o SolveOptions) withDefaults(par Params) SolveOptions {
	if o.InitOut == 0 && o.InitIn == 0 {
		d := (par.DL + par.S) / 2
		if d%2 != 0 {
			d--
		}
		if d < par.DL {
			d = par.DL
		}
		o.InitOut = d
		o.InitIn = d
	}
	if o.InnerTol == 0 {
		o.InnerTol = 1e-11
	}
	if o.OuterTol == 0 {
		o.OuterTol = 1e-9
	}
	return o
}

// Result is the solved steady-state degree behaviour of the tagged node.
type Result struct {
	Space *Space
	// Pi is the stationary distribution over Space.States().
	Pi []float64
	// Field holds the mean-field quantities at the fixed point.
	Field Field
	// OutDist[d] is the stationary P(outdegree = d), d in 0..s.
	OutDist []float64
	// InDist[i] is the stationary P(indegree = i).
	InDist []float64
	// OuterIterations counts fixed-point rounds used.
	OuterIterations int
	// DupProb is the steady-state probability that an active initiation
	// duplicates (Lemma 6.7 bounds it by l + delta from above and l from
	// below).
	DupProb float64
	// DelProb is the steady-state probability that an active initiation
	// leads to a deletion (delivered to a full view).
	DelProb float64
}

// MeanOut returns the expected outdegree dE.
func (r *Result) MeanOut() float64 { return stats.DistMean(r.OutDist) }

// MeanIn returns the expected indegree Din.
func (r *Result) MeanIn() float64 { return stats.DistMean(r.InDist) }

// StdOut returns the outdegree standard deviation.
func (r *Result) StdOut() float64 { return stats.DistStdDev(r.OutDist) }

// StdIn returns the indegree standard deviation.
func (r *Result) StdIn() float64 { return stats.DistStdDev(r.InDist) }

// solveKey identifies one fully-normalized solve: Params plus defaulted
// SolveOptions. Both are flat comparable structs.
type solveKey struct {
	par  Params
	opts SolveOptions
}

// solveEntry is one memoized solve; once protects the single computation.
type solveEntry struct {
	once sync.Once
	res  *Result
	err  error
}

var solveCache struct {
	mu sync.Mutex
	m  map[solveKey]*solveEntry
}

// ResetSolveCache drops all memoized solves. Benchmarks that want to time
// the fixed-point computation itself call it between iterations.
func ResetSolveCache() {
	solveCache.mu.Lock()
	solveCache.m = nil
	solveCache.mu.Unlock()
}

// Solve runs the fixed-point iteration of Section 6.2 and returns the
// steady-state result.
//
// Results are memoized per (Params, SolveOptions): the experiment runners
// solve identical chains many times (tab6.3 and fig6.1 share the dm=90
// manifold solve; the ablation grids repeat interior points), and a repeat
// call returns a copy of the cached fixed point. The cache is safe for
// concurrent use — parameter sweeps fan solves out across goroutines — and
// a concurrent duplicate blocks on the first computation instead of
// re-solving. The returned Result is a private copy; callers may mutate its
// distribution slices freely. The shared Space is immutable after
// construction.
func Solve(par Params, opts SolveOptions) (*Result, error) {
	if err := par.validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults(par)
	key := solveKey{par: par, opts: opts}
	solveCache.mu.Lock()
	if solveCache.m == nil {
		solveCache.m = make(map[solveKey]*solveEntry)
	}
	e, ok := solveCache.m[key]
	if !ok {
		e = &solveEntry{}
		solveCache.m[key] = e
	}
	solveCache.mu.Unlock()
	e.once.Do(func() { e.res, e.err = solve(par, opts) })
	if e.err != nil {
		return nil, e.err
	}
	return e.res.clone(), nil
}

// clone copies the result's mutable slices; Space is shared (immutable).
func (r *Result) clone() *Result {
	c := *r
	c.Pi = append([]float64(nil), r.Pi...)
	c.OutDist = append([]float64(nil), r.OutDist...)
	c.InDist = append([]float64(nil), r.InDist...)
	return &c
}

// solve is the uncached fixed-point iteration. opts must be defaulted.
func solve(par Params, opts SolveOptions) (*Result, error) {
	sp, err := NewSpace(par)
	if err != nil {
		return nil, err
	}
	init := State{Out: opts.InitOut, In: opts.InitIn}
	k0, ok := sp.Index(init)
	if !ok {
		return nil, fmt.Errorf("degreemc: initial state %+v outside state space", init)
	}
	rho := make([]float64, sp.Len())
	rho[k0] = 1

	// The sparsity pattern is field-independent: build the CSR chain once
	// and rewrite its weights each round.
	tmpl, err := sp.newChainTemplate()
	if err != nil {
		return nil, err
	}
	var field Field
	for outer := 1; outer <= outerMaxIter; outer++ {
		field, err = sp.DeriveField(rho)
		if err != nil {
			return nil, err
		}
		if _, err := tmpl.rewrite(field); err != nil {
			return nil, err
		}
		stat, _, err := markov.Stationary(tmpl.csr, rho, opts.InnerTol, innerMaxIter)
		if err != nil {
			return nil, fmt.Errorf("degreemc: outer round %d: %w", outer, err)
		}
		// The residual is the distance of the iterate from its image; the
		// damped update shrinks oscillation while sharing the fixed point.
		if stats.TotalVariation(rho, stat) < opts.OuterTol {
			return sp.buildResult(par, stat, outer)
		}
		for k := range rho {
			rho[k] = (1-damping)*rho[k] + damping*stat[k]
		}
	}
	return nil, fmt.Errorf("degreemc: fixed point did not converge in %d rounds", outerMaxIter)
}

// buildResult assembles marginals and steady-state event probabilities.
func (sp *Space) buildResult(par Params, pi []float64, outer int) (*Result, error) {
	field, err := sp.DeriveField(pi)
	if err != nil {
		return nil, err
	}
	r := &Result{
		Space:           sp,
		Pi:              pi,
		Field:           field,
		OutDist:         make([]float64, par.S+1),
		OuterIterations: outer,
	}
	maxIn := 0
	for _, st := range sp.states {
		if st.In > maxIn {
			maxIn = st.In
		}
	}
	r.InDist = make([]float64, maxIn+1)
	// Event probabilities are activity-weighted: an active initiation by a
	// node at outdegree d occurs at rate d(d-1).
	var actW, dupW float64
	for k, st := range sp.states {
		p := pi[k]
		r.OutDist[st.Out] += p
		r.InDist[st.In] += p
		w := p * float64(st.Out*(st.Out-1))
		actW += w
		if st.Out == par.DL {
			dupW += w
		}
	}
	if actW > 0 {
		r.DupProb = dupW / actW
		// A deletion happens when a delivered message finds a full view.
		r.DelProb = (1 - par.Loss) * field.PFull
	}
	return r, nil
}
