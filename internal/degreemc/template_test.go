package degreemc

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"sendforget/internal/markov"
)

// TestTemplateMatchesTransitions checks the one chain builder against a
// reference uniformized inside the test from the exported Transitions list:
// the same w, and every edge weight and self-loop equal bit for bit. One
// template is rewritten for several fields in turn (including the lossless
// manifold, where many rates vanish), so no weight may leak from one field
// into the next; BuildChain must produce the same rows.
func TestTemplateMatchesTransitions(t *testing.T) {
	for _, par := range []Params{
		{S: 12, DL: 6, Loss: 0},
		{S: 12, DL: 6, Loss: 0.15},
		{S: 14, DL: 4, Loss: 0.4},
	} {
		sp, err := NewSpace(par)
		if err != nil {
			t.Fatal(err)
		}
		tmpl, err := sp.newChainTemplate()
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range []Field{
			{PFull: 0.3, Gap: 2.5, PDup: 0.1},
			{PFull: 0, Gap: 4, PDup: 0},
			{PFull: 1, Gap: 0.5, PDup: 0.9},
		} {
			n := sp.Len()
			ref := make([]map[int]float64, n)
			totals := make([]float64, n)
			for k := range ref {
				ref[k] = map[int]float64{}
			}
			for _, tr := range sp.Transitions(f) {
				from, _ := sp.Index(tr.From)
				to, ok := sp.Index(tr.To)
				if !ok {
					continue
				}
				ref[from][to] += tr.Rate
				totals[from] += tr.Rate
			}
			wantW := 0.0
			for _, total := range totals {
				wantW = math.Max(wantW, total)
			}
			wantW *= uniformizationHeadroom

			w, err := tmpl.rewrite(f)
			if err != nil {
				t.Fatal(err)
			}
			if w != wantW {
				t.Fatalf("par %+v field %+v: w = %v, reference %v", par, f, w, wantW)
			}
			if err := markov.Validate(tmpl.csr); err != nil {
				t.Fatalf("par %+v field %+v: rewritten template invalid: %v", par, f, err)
			}
			built, err := sp.BuildChain(f)
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < n; k++ {
				cols, probs := tmpl.csr.Row(k)
				builtCols, builtProbs := built.Row(k)
				if !slices.Equal(cols, builtCols) || !slices.Equal(probs, builtProbs) {
					t.Fatalf("par %+v field %+v row %d: BuildChain differs from the rewritten template", par, f, k)
				}
				for slot, c := range cols {
					want := ref[k][int(c)] / w
					if int(c) == k {
						want += 1 - totals[k]/w
					}
					if probs[slot] != want {
						t.Fatalf("par %+v field %+v row %d col %d: builder %v reference %v", par, f, k, c, probs[slot], want)
					}
					delete(ref[k], int(c))
				}
				if len(ref[k]) != 0 {
					t.Fatalf("par %+v field %+v row %d: transitions outside the pattern: %v", par, f, k, ref[k])
				}
			}
		}
	}
}

// TestTransientRoundsPerStep pins Transient's time scale: one step of the
// builder's chain spans s(s-1)/w rounds for the w the builder returned, so
// sampling once per s(s-1)/w rounds must land on successive chain steps.
func TestTransientRoundsPerStep(t *testing.T) {
	par := Params{S: 12, DL: 6, Loss: 0.15}
	f := Field{PFull: 0.3, Gap: 2.5, PDup: 0.1}
	sp, err := NewSpace(par)
	if err != nil {
		t.Fatal(err)
	}
	tmpl, err := sp.newChainTemplate()
	if err != nil {
		t.Fatal(err)
	}
	w, err := tmpl.rewrite(f)
	if err != nil {
		t.Fatal(err)
	}
	roundsPerStep := float64(par.S*(par.S-1)) / w
	from := State{Out: par.DL, In: 0}
	const steps = 200
	traj, err := sp.Transient(f, from, steps*roundsPerStep, steps)
	if err != nil {
		t.Fatal(err)
	}
	k0, _ := sp.Index(from)
	dist := make([]float64, sp.Len())
	dist[k0] = 1
	for i := 1; i <= steps; i++ {
		dist = markov.Step(tmpl.csr, dist)
		mo := 0.0
		for k, p := range dist {
			mo += p * float64(sp.States()[k].Out)
		}
		if traj[i].MeanOut != mo {
			t.Fatalf("sample %d (round %v): MeanOut %v, want %v after %d chain steps", i, traj[i].Round, traj[i].MeanOut, mo, i)
		}
	}
}

// TestSolveCacheDeterministic checks that repeated Solve calls return
// bitwise-identical results and that mutating a returned Result cannot
// corrupt the cache.
func TestSolveCacheDeterministic(t *testing.T) {
	ResetSolveCache()
	par := Params{S: 14, DL: 6, Loss: 0.1}
	r1, err := Solve(par, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Solve(par, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Pi) != len(r2.Pi) {
		t.Fatalf("Pi lengths differ: %d vs %d", len(r1.Pi), len(r2.Pi))
	}
	for k := range r1.Pi {
		if r1.Pi[k] != r2.Pi[k] {
			t.Fatalf("cached Pi differs at %d: %x vs %x", k, r1.Pi[k], r2.Pi[k])
		}
	}
	if r1.Field != r2.Field || r1.OuterIterations != r2.OuterIterations {
		t.Fatalf("cached metadata differs: %+v vs %+v", r1, r2)
	}
	// Clobber the first result; a fresh call must be unaffected.
	for k := range r1.Pi {
		r1.Pi[k] = -1
	}
	r1.OutDist[0] = 99
	r1.InDist[0] = 99
	r3, err := Solve(par, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for k := range r2.Pi {
		if r2.Pi[k] != r3.Pi[k] {
			t.Fatalf("cache corrupted by caller mutation at %d", k)
		}
	}
	if r3.OutDist[0] == 99 || r3.InDist[0] == 99 {
		t.Fatal("cache shares marginal slices with callers")
	}
}

// TestSolveConcurrent exercises the cache under concurrent access: identical
// and distinct keys solved from many goroutines must all agree with a
// sequential reference. Run with -race to check the synchronization.
func TestSolveConcurrent(t *testing.T) {
	ResetSolveCache()
	pars := []Params{
		{S: 12, DL: 6, Loss: 0},
		{S: 12, DL: 6, Loss: 0.1},
		{S: 14, DL: 4, Loss: 0.2},
	}
	want := make([]*Result, len(pars))
	for i, par := range pars {
		r, err := Solve(par, SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}
	ResetSolveCache()
	var wg sync.WaitGroup
	errs := make(chan error, 24)
	for g := 0; g < 8; g++ {
		for i, par := range pars {
			wg.Add(1)
			go func(i int, par Params) {
				defer wg.Done()
				r, err := Solve(par, SolveOptions{})
				if err != nil {
					errs <- err
					return
				}
				for k := range r.Pi {
					if r.Pi[k] != want[i].Pi[k] {
						errs <- fmt.Errorf("concurrent Solve(%+v) diverged from sequential reference at state %d", par, k)
						return
					}
				}
			}(i, par)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
