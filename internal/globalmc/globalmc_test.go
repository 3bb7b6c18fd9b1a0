package globalmc

import (
	"math"
	"testing"

	"sendforget/internal/markov"
)

func TestParamsValidation(t *testing.T) {
	tests := []struct {
		name string
		par  Params
		ok   bool
	}{
		{"valid", Params{N: 3, S: 6, DL: 0}, true},
		{"valid with loss", Params{N: 3, S: 6, DL: 2, Loss: 0.1}, true},
		{"n too large", Params{N: 6, S: 6, DL: 0}, false},
		{"n too small", Params{N: 1, S: 6, DL: 0}, false},
		{"odd s", Params{N: 3, S: 5, DL: 0}, false},
		{"odd dL", Params{N: 3, S: 6, DL: 1}, false},
		{"dL >= s", Params{N: 3, S: 6, DL: 6}, false},
		{"loss 1", Params{N: 3, S: 6, DL: 0, Loss: 1}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			par := tt.par
			if tt.ok {
				// Keep the valid cases cheap: validation happens before
				// enumeration, so a lossless tiny chain suffices.
				par.Loss = 0
			}
			_, err := Build(par, Circulant(par.N, 2))
			if (err == nil) != tt.ok {
				t.Errorf("Build(%+v) error = %v, want ok=%v", par, err, tt.ok)
			}
		})
	}
}

func TestCirculant(t *testing.T) {
	st := Circulant(3, 2)
	for u := 0; u < 3; u++ {
		if d := st.Outdegree(u); d != 2 {
			t.Errorf("node %d outdegree = %d, want 2", u, d)
		}
	}
	ds := st.SumDegrees()
	for u, v := range ds {
		if v != 6 {
			t.Errorf("node %d sum degree = %d, want 6", u, v)
		}
	}
	if !st.weaklyConnected() {
		t.Error("circulant not weakly connected")
	}
}

func TestBuildRejectsBadInitial(t *testing.T) {
	par := Params{N: 3, S: 6, DL: 0}
	if _, err := Build(par, Circulant(4, 2)); err == nil {
		t.Error("accepted wrong node count")
	}
	// Odd outdegree.
	st := NewState(3)
	st.Mult[0][1] = 1
	st.Mult[1][0] = 2
	st.Mult[2][0] = 2
	if _, err := Build(par, st); err == nil {
		t.Error("accepted odd outdegree")
	}
	// Disconnected initial state: self-edges only on node 2.
	st2 := NewState(3)
	st2.Mult[0][1] = 2
	st2.Mult[1][0] = 2
	st2.Mult[2][2] = 2
	if _, err := Build(par, st2); err == nil {
		t.Error("accepted partitioned initial state")
	}
}

func TestLemma71StrongConnectivityUnderLoss(t *testing.T) {
	// 0 < l < 1: the global chain is strongly connected (Lemma 7.1).
	chain, err := Build(Params{N: 3, S: 6, DL: 2, Loss: 0.1}, Circulant(3, 2))
	if err != nil {
		t.Fatal(err)
	}
	if chain.Len() < 10 {
		t.Fatalf("suspiciously small state space: %d", chain.Len())
	}
	if !markov.IsIrreducible(chain.MC()) {
		t.Error("global chain with 0 < l < 1 is not strongly connected (Lemma 7.1)")
	}
	if !markov.IsErgodic(chain.MC()) {
		t.Error("global chain not ergodic (Lemma 7.2 premise)")
	}
}

// duplicateOverflow counts the dependence-bearing entries of a state: the
// multiplicity overflow of same-view duplicates plus all self-edges —
// exactly the entries the paper's Section 2 labeling discounts.
func duplicateOverflow(st State) int {
	dup := 0
	for u := range st.Mult {
		for v, m := range st.Mult[u] {
			if int(m) > 1 {
				dup += int(m) - 1
			}
			if u == v {
				dup += int(m)
			}
		}
	}
	return dup
}

func TestLemma75UniformityModuloDuplicates(t *testing.T) {
	// Lemma 7.5 states that with no loss and constant sum degrees the
	// stationary distribution is uniform over all reachable states. Its
	// proof (Lemma 7.3) pairs each transformation with a reverse
	// transformation of equal probability — a pairing that is exact only
	// when view entries have multiplicity one: with a duplicate id, two
	// forward entry-pair choices map to a single reverse choice. The paper
	// works in the n >> s regime where duplicates are O(s/n) rare and
	// explicitly discounts them as dependencies (Section 2). Exact
	// enumeration at n=3 makes the effect visible; what must hold exactly
	// is that the chain preserves the manifold (Lemma 6.2), is ergodic on
	// it, and that the deviation from uniformity is *attributable to
	// duplicates*: the duplicate-free state is modal, and probability
	// decays with the duplicate count.
	chain, err := Build(Params{N: 3, S: 6, DL: 0, Loss: 0}, Circulant(3, 2))
	if err != nil {
		t.Fatal(err)
	}
	// The lossless manifold chain preserves sum degrees (Lemma 6.2).
	for _, st := range chain.States() {
		for u, ds := range st.SumDegrees() {
			if ds != 6 {
				t.Fatalf("state off manifold: node %d sum degree %d", u, ds)
			}
		}
	}
	if !markov.IsErgodic(chain.MC()) {
		t.Fatal("lossless manifold chain not ergodic")
	}
	pi, err := chain.Stationary(1e-13, 5000000)
	if err != nil {
		t.Fatal(err)
	}
	// Group stationary mass by duplicate overflow.
	maxPi := make(map[int]float64)
	meanPi := make(map[int]float64)
	counts := make(map[int]int)
	globalMax, globalMaxDup := 0.0, -1
	for i, st := range chain.States() {
		dup := duplicateOverflow(st)
		if pi[i] > maxPi[dup] {
			maxPi[dup] = pi[i]
		}
		meanPi[dup] += pi[i]
		counts[dup]++
		if pi[i] > globalMax {
			globalMax, globalMaxDup = pi[i], dup
		}
	}
	for dup := range meanPi {
		meanPi[dup] /= float64(counts[dup])
	}
	if globalMaxDup != 0 {
		t.Errorf("modal state has duplicate overflow %d, want 0 (duplicate-free)", globalMaxDup)
	}
	// Mean probability must decrease with duplicate count.
	prev := meanPi[0]
	for dup := 1; dup <= 4; dup++ {
		if counts[dup] == 0 {
			continue
		}
		if meanPi[dup] >= prev {
			t.Errorf("mean pi did not decay with duplicates: dup=%d mean %v >= %v", dup, meanPi[dup], prev)
		}
		prev = meanPi[dup]
	}
}

func TestLemma76UniformEdgeProbability(t *testing.T) {
	// In the steady state, every v != u appears in u's view with equal
	// probability (Lemma 7.6). Check all (u, v) pairs under loss.
	chain, err := Build(Params{N: 3, S: 6, DL: 2, Loss: 0.1}, Circulant(3, 2))
	if err != nil {
		t.Fatal(err)
	}
	pi, err := chain.Stationary(1e-11, 2000000)
	if err != nil {
		t.Fatal(err)
	}
	var probs []float64
	for u := 0; u < 3; u++ {
		for v := 0; v < 3; v++ {
			if v == u {
				continue
			}
			probs = append(probs, chain.EdgeProbability(pi, u, v))
		}
	}
	for i := 1; i < len(probs); i++ {
		if math.Abs(probs[i]-probs[0]) > 1e-6 {
			t.Fatalf("edge probabilities not uniform: %v", probs)
		}
	}
	if probs[0] <= 0 || probs[0] >= 1 {
		t.Fatalf("degenerate edge probability %v", probs[0])
	}
}

func TestPartitionedStatesClipped(t *testing.T) {
	// With dL=0 and loss, views can decay; transitions into partitioned
	// membership graphs must be redirected to self-loops, and no reachable
	// state may be partitioned.
	chain, err := Build(Params{N: 3, S: 6, DL: 0, Loss: 0.3}, Circulant(3, 2))
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range chain.States() {
		if !st.weaklyConnected() {
			t.Fatalf("state %d is partitioned", i)
		}
	}
	if chain.PartitionClipped == 0 {
		t.Error("expected some partition-bound probability mass to be clipped at dL=0 under loss")
	}
	if err := markov.Validate(chain.MC()); err != nil {
		t.Fatal(err)
	}
}

func TestManifoldStates(t *testing.T) {
	chain, err := Build(Params{N: 3, S: 6, DL: 0, Loss: 0}, Circulant(3, 2))
	if err != nil {
		t.Fatal(err)
	}
	manifold := chain.ManifoldStates([]int{6, 6, 6})
	if len(manifold) != chain.Len() {
		t.Errorf("manifold has %d of %d states; lossless chain should stay on it", len(manifold), chain.Len())
	}
	if got := chain.ManifoldStates([]int{2, 2, 2}); len(got) != 0 {
		t.Errorf("unexpected states on foreign manifold: %d", len(got))
	}
}

func TestSelfEdgesAriseAndAreCounted(t *testing.T) {
	// Under loss with duplication, an id can travel back to its owner,
	// creating self-edges; the enumeration must include such states.
	chain, err := Build(Params{N: 3, S: 6, DL: 2, Loss: 0.1}, Circulant(3, 2))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, st := range chain.States() {
		for u := 0; u < 3; u++ {
			if st.Mult[u][u] > 0 {
				found = true
			}
		}
	}
	if !found {
		t.Error("no state with a self-edge was enumerated")
	}
}

func TestTransitionProbabilityConservation(t *testing.T) {
	// Every row of the assembled chain must sum to exactly 1 (Validate is
	// called in Build; this asserts it independently on a lossy chain).
	chain, err := Build(Params{N: 4, S: 4, DL: 0, Loss: 0.2}, Circulant(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := markov.Validate(chain.MC()); err != nil {
		t.Fatal(err)
	}
	if chain.Len() < 50 {
		t.Errorf("n=4 chain suspiciously small: %d states", chain.Len())
	}
}

func TestLemmaA3AllV0StatesReachable(t *testing.T) {
	// Lemma A.3: for 0 < l < 1, every weakly connected state with even
	// outdegrees in [dL, s-2] (the set V0) is reachable from every other.
	// Exhaustive check at n=3, s=6, dL=2: enumerate V0 and verify the BFS
	// closure from the circulant start covers all of it, and that the
	// chain is strongly connected (so "from every other" follows).
	par := Params{N: 3, S: 6, DL: 2, Loss: 0.1}
	chain, err := Build(par, Circulant(3, 2))
	if err != nil {
		t.Fatal(err)
	}
	v0 := AllV0States(par)
	if len(v0) < 50 {
		t.Fatalf("suspiciously small V0: %d states", len(v0))
	}
	missing := 0
	for _, st := range v0 {
		if !chain.Contains(st) {
			missing++
		}
	}
	if missing > 0 {
		t.Errorf("%d of %d V0 states unreachable from the circulant start (Lemma A.3)", missing, len(v0))
	}
	if !markov.IsIrreducible(chain.MC()) {
		t.Error("chain not strongly connected")
	}
}

func TestAllV0StatesRespectConstraints(t *testing.T) {
	par := Params{N: 3, S: 6, DL: 2, Loss: 0.1}
	for _, st := range AllV0States(par) {
		for u := 0; u < par.N; u++ {
			d := st.Outdegree(u)
			if d%2 != 0 || d < par.DL || d > par.S-2 {
				t.Fatalf("V0 state with invalid outdegree %d at node %d", d, u)
			}
		}
		if !st.weaklyConnected() {
			t.Fatal("V0 state not weakly connected")
		}
	}
}

// AllV0States enumerates the paper's V0 (Section 7.1): every weakly
// connected membership graph in which all node outdegrees are even and
// within [dL, s-2]. Lemma A.3 proves that under positive loss every state
// of V0 is reachable from every other; combined with BFS reachability from
// a single initial state this gives an exact, exhaustive check of the
// lemma for tiny systems.
func AllV0States(par Params) []State {
	n := par.N
	maxOut := par.S - 2
	// Enumerate per-node views: all multiplicity vectors over n ids with
	// even total in [dL, s-2].
	var viewChoices [][]uint8
	var build func(vec []uint8, idx, total int)
	build = func(vec []uint8, idx, total int) {
		if total > maxOut {
			return
		}
		if idx == n {
			if total >= par.DL && total%2 == 0 {
				c := make([]uint8, n)
				copy(c, vec)
				viewChoices = append(viewChoices, c)
			}
			return
		}
		for m := 0; m+total <= maxOut; m++ {
			vec[idx] = uint8(m)
			build(vec, idx+1, total+m)
		}
		vec[idx] = 0
	}
	build(make([]uint8, n), 0, 0)

	// Cartesian product over nodes, keeping weakly connected states.
	var out []State
	current := NewState(n)
	var assign func(u int)
	assign = func(u int) {
		if u == n {
			if current.weaklyConnected() {
				out = append(out, current.clone())
			}
			return
		}
		for _, vc := range viewChoices {
			copy(current.Mult[u], vc)
			assign(u + 1)
		}
	}
	assign(0)
	return out
}

// Contains reports whether the chain's reachable set includes st.
func (c *Chain) Contains(st State) bool {
	_, ok := c.index[st.key()]
	return ok
}

// Index returns the state's index in States(), if present.
func (c *Chain) Index(st State) (int, bool) {
	i, ok := c.index[st.key()]
	return i, ok
}

// SumDegrees returns the sum-degree vector (Definition 6.1).
func (st State) SumDegrees() []int {
	n := len(st.Mult)
	out := make([]int, n)
	for u := 0; u < n; u++ {
		out[u] = st.Outdegree(u)
	}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			out[v] += 2 * int(st.Mult[u][v])
		}
	}
	return out
}

// ManifoldStates returns the indices of states whose sum-degree vector
// equals want — the subchain G_ds of Section 7.2.
func (c *Chain) ManifoldStates(want []int) []int {
	var out []int
	for i, st := range c.states {
		ds := st.SumDegrees()
		match := len(ds) == len(want)
		for k := range want {
			if !match || ds[k] != want[k] {
				match = false
				break
			}
		}
		if match {
			out = append(out, i)
		}
	}
	return out
}
