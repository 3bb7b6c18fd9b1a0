package analysis

import (
	"math"
	"testing"

	"sendforget/internal/stats"
)

func TestOutdegreeDistValidation(t *testing.T) {
	if _, err := OutdegreeDist(0); err == nil {
		t.Error("accepted dm=0")
	}
	if _, err := OutdegreeDist(7); err == nil {
		t.Error("accepted odd dm")
	}
}

func TestOutdegreeDistProperties(t *testing.T) {
	dist, err := OutdegreeDist(90)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for d, p := range dist {
		if d%2 == 1 && p != 0 {
			t.Fatalf("odd degree %d has probability %v", d, p)
		}
		if p < 0 {
			t.Fatalf("negative probability at %d", d)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("distribution sums to %v", sum)
	}
	// Lemma 6.3: mean outdegree is dm/3 = 30. The analytical distribution
	// is an approximation; its mode and mean sit at 30 exactly by symmetry
	// of a(d) around... verify numerically within a small tolerance.
	mean := stats.DistMean(dist)
	if math.Abs(mean-30) > 0.5 {
		t.Errorf("mean outdegree = %v, want ~30 (dm/3)", mean)
	}
	// Figure 6.1 compares against binomials with the same expectation.
	// For the outdegree, Binomial(90, 1/3) has variance 20 and the
	// analytical curve is essentially as wide (within a few percent); the
	// sharp variance reduction shows up in the indegree, whose variance is
	// a quarter of the outdegree's (din = (dm-d)/2).
	if v := stats.DistVariance(dist); math.Abs(v-20) > 1.5 {
		t.Errorf("analytical outdegree variance %v, want ~20", v)
	}
	in, err := IndegreeDist(90)
	if err != nil {
		t.Fatal(err)
	}
	if v := stats.DistVariance(in); v >= 20.0/2 {
		t.Errorf("analytical indegree variance %v not well below binomial 20", v)
	}
}

func TestIndegreeDistMirror(t *testing.T) {
	in, err := IndegreeDist(90)
	if err != nil {
		t.Fatal(err)
	}
	out, err := OutdegreeDist(90)
	if err != nil {
		t.Fatal(err)
	}
	// P(din = (90-d)/2) = P(dout = d).
	for d := 0; d <= 90; d += 2 {
		if got, want := in[(90-d)/2], out[d]; math.Abs(got-want) > 1e-12 {
			t.Fatalf("indegree mirror broken at d=%d: %v != %v", d, got, want)
		}
	}
	mean := stats.DistMean(in)
	if math.Abs(mean-30) > 0.3 {
		t.Errorf("mean indegree = %v, want ~30", mean)
	}
	if _, err := IndegreeDist(3); err == nil {
		t.Error("accepted odd dm")
	}
}

func TestThresholdsPaperExample(t *testing.T) {
	// Section 6.3: dHat = 30, delta = 0.01 -> dL = 18, s = 40. Under the
	// analytical Eq. 6.1 tail the upper threshold lands one even step
	// higher (42); the paper's 40 matches the exact degree-MC distribution
	// (see tab6.3 in EXPERIMENTS.md). Accept the adjacent even value.
	dl, s, err := Thresholds(30, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if dl != 18 {
		t.Errorf("Thresholds(30, 0.01) dL = %d, want 18", dl)
	}
	if s != 40 && s != 42 {
		t.Errorf("Thresholds(30, 0.01) s = %d, want 40 or 42", s)
	}
}

func TestThresholdsFromDist(t *testing.T) {
	// A synthetic narrow distribution around 30: tails vanish quickly, so
	// the bracket should be tight.
	dist := make([]float64, 91)
	dist[28], dist[30], dist[32] = 0.25, 0.5, 0.25
	dl, s, err := ThresholdsFromDist(dist, 30, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if dl != 26 || s != 34 {
		t.Errorf("ThresholdsFromDist = (%d, %d), want (26, 34)", dl, s)
	}
	if _, _, err := ThresholdsFromDist(dist[:20], 30, 0.01); err == nil {
		t.Error("accepted support below dHat")
	}
}

func TestThresholdsMonotonicity(t *testing.T) {
	// Tighter delta widens the bracket.
	dlLoose, sLoose, err := Thresholds(30, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	dlTight, sTight, err := Thresholds(30, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if !(dlTight <= dlLoose && sTight >= sLoose) {
		t.Errorf("tighter delta did not widen bracket: loose (%d,%d), tight (%d,%d)", dlLoose, sLoose, dlTight, sTight)
	}
	if dlLoose >= 30 || sLoose <= 30 {
		t.Errorf("bracket does not straddle dHat: (%d, %d)", dlLoose, sLoose)
	}
}

func TestThresholdsValidation(t *testing.T) {
	if _, _, err := Thresholds(0, 0.01); err == nil {
		t.Error("accepted dHat=0")
	}
	if _, _, err := Thresholds(31, 0.01); err == nil {
		t.Error("accepted odd dHat")
	}
	if _, _, err := Thresholds(30, 0); err == nil {
		t.Error("accepted delta=0")
	}
	if _, _, err := Thresholds(30, 0.5); err == nil {
		t.Error("accepted delta=0.5")
	}
}

func TestSurvivalBound(t *testing.T) {
	// Paper example: dL=18, s=40, delta=0.01. The per-round retention is
	// 1 - 0.99*18/1600 ~ 0.98886 at l=0; after 70 rounds the bound is
	// below 50% but above 40%.
	curve, err := SurvivalBound(0, 0.01, 18, 40, 70)
	if err != nil {
		t.Fatal(err)
	}
	if curve[0] != 1 {
		t.Errorf("survival at round 0 = %v, want 1", curve[0])
	}
	if curve[70] >= 0.5 || curve[70] < 0.4 {
		t.Errorf("survival bound at 70 rounds = %v, want in [0.4, 0.5)", curve[70])
	}
	// Monotone decreasing.
	for i := 1; i < len(curve); i++ {
		if curve[i] > curve[i-1] {
			t.Fatalf("survival bound increased at round %d", i)
		}
	}
	// Loss barely changes the decay rate (Figure 6.4's observation).
	lossy, err := SurvivalBound(0.1, 0.01, 18, 40, 70)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lossy[70]-curve[70]) > 0.05 {
		t.Errorf("decay rate strongly affected by loss: %v vs %v", lossy[70], curve[70])
	}
	if _, err := SurvivalBound(-0.1, 0, 18, 40, 10); err == nil {
		t.Error("accepted negative loss")
	}
	if _, err := SurvivalBound(0, 0, 41, 40, 10); err == nil {
		t.Error("accepted dL > s")
	}
	if _, err := SurvivalBound(0, 0, 18, 40, -1); err == nil {
		t.Error("accepted negative rounds")
	}
}

func TestHalfLifePaperExample(t *testing.T) {
	// "after merely 70 rounds ... fewer than 50% of the id instances ...
	// are expected to remain" for the example parameters.
	hl, err := HalfLife(0, 0.01, 18, 40)
	if err != nil {
		t.Fatal(err)
	}
	if hl < 55 || hl > 70 {
		t.Errorf("half-life = %d rounds, want ~60-70 per Figure 6.4", hl)
	}
	if _, err := HalfLife(0, 0, 0, 40); err == nil {
		t.Error("accepted dL=0 (no decay)")
	}
}

func TestJoinerIntegrationCorollary614(t *testing.T) {
	// Corollary 6.14: s/dL = 2 and l+delta << 1 -> after ~2s rounds the
	// joiner creates at least Din/4 instances.
	rounds, instances, err := JoinerIntegration(0, 0.001, 20, 40, 28)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rounds-2*40/(1-0.001)) > 0.2 {
		t.Errorf("integration rounds = %v, want ~2s = 80", rounds)
	}
	if math.Abs(instances-7) > 1e-9 {
		t.Errorf("instances = %v, want Din/4 = 7", instances)
	}
	if _, _, err := JoinerIntegration(0, 0, 0, 40, 28); err == nil {
		t.Error("accepted dL=0")
	}
}

func TestAlphaLowerBound(t *testing.T) {
	a, err := AlphaLowerBound(0.01, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a-0.96) > 1e-12 {
		t.Errorf("alpha bound = %v, want 0.96", a)
	}
	a, err = AlphaLowerBound(0, 0)
	if err != nil || a != 1 {
		t.Errorf("alpha at zero loss = %v, want 1", a)
	}
	// Clamped at zero for extreme rates.
	a, err = AlphaLowerBound(0.4, 0.2)
	if err != nil || a != 0 {
		t.Errorf("alpha at extreme rates = %v, want 0", a)
	}
	if _, err := AlphaLowerBound(0.7, 0.5); err == nil {
		t.Error("accepted l+delta >= 1")
	}
}

// TestAlphaLowerBoundBelowFigure71Chain checks the last step of Lemma
// 7.9's proof over the moderate-rate grid the paper targets: the two-state
// dependence chain of Figure 7.1 spends at least AlphaLowerBound(l, delta)
// of its time independent. Per transformation involving a view entry:
//
//   - independent -> dependent with probability at most (3/2)(l+delta): the
//     entry is duplicated (<= l+delta, Lemma 6.7), inflated by the <= 1/2
//     probability that a dependent copy sent earlier returns (Lemma 7.8);
//   - dependent -> independent with probability at least (5/6)(1-(l+delta)):
//     the entry moves without duplication and is not a self-edge (at most
//     1/6 of the entries under Assumption 7.7).
func TestAlphaLowerBoundBelowFigure71Chain(t *testing.T) {
	for _, l := range []float64{0, 0.005, 0.01, 0.05, 0.1, 0.2} {
		for _, delta := range []float64{0, 0.005, 0.01, 0.05} {
			toDep := min(1.5*(l+delta), 1)
			toIndep := 5.0 / 6.0 * (1 - (l + delta))
			independent := 1 - toDep/(toDep+toIndep)
			bound, err := AlphaLowerBound(l, delta)
			if err != nil {
				t.Fatal(err)
			}
			if independent < bound-1e-12 {
				t.Errorf("l=%v delta=%v: stationary independent fraction %v below the Lemma 7.9 bound %v", l, delta, independent, bound)
			}
			// The dependent fraction grows like (9/5)(l+delta) for small
			// rates, inside the bound's 2(l+delta).
			if l+delta > 0 && l+delta < 0.05 {
				if ratio := (1 - independent) / (l + delta); ratio < 1.5 || ratio > 2 {
					t.Errorf("l=%v delta=%v: dependent fraction / (l+delta) = %v, want in [1.5, 2]", l, delta, ratio)
				}
			}
		}
	}
}

func TestDuplicationBounds(t *testing.T) {
	lo, hi, err := DuplicationBounds(0.05, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if lo != 0.05 || math.Abs(hi-0.06) > 1e-12 {
		t.Errorf("bounds = (%v, %v), want (0.05, 0.06)", lo, hi)
	}
}

func TestConnectivityMinDLPaperExample(t *testing.T) {
	// Section 7.4: l = delta = 1%, eps = 1e-30 -> dL >= 26.
	dl, err := ConnectivityMinDL(0.01, 0.01, 1e-30)
	if err != nil {
		t.Fatal(err)
	}
	if dl != 26 {
		t.Errorf("ConnectivityMinDL = %d, want 26", dl)
	}
}

func TestConnectivityMinDLValidation(t *testing.T) {
	if _, err := ConnectivityMinDL(0.01, 0.01, 0); err == nil {
		t.Error("accepted eps=0")
	}
	if _, err := ConnectivityMinDL(0.01, 0.01, 1); err == nil {
		t.Error("accepted eps=1")
	}
	if _, err := ConnectivityMinDL(0.3, 0.2, 1e-10); err == nil {
		t.Error("accepted alpha=0 parameters")
	}
	// Larger eps needs smaller dL.
	loose, err := ConnectivityMinDL(0.01, 0.01, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	tight, err := ConnectivityMinDL(0.01, 0.01, 1e-30)
	if err != nil {
		t.Fatal(err)
	}
	if loose >= tight {
		t.Errorf("loose eps dL %d >= tight eps dL %d", loose, tight)
	}
}

func TestExpectedConductanceBound(t *testing.T) {
	phi, err := expectedConductanceBound(40, 28, 0.96)
	if err != nil {
		t.Fatal(err)
	}
	want := 28.0 * 27 * 0.96 / (2 * 40 * 39)
	if math.Abs(phi-want) > 1e-12 {
		t.Errorf("conductance bound = %v, want %v", phi, want)
	}
	if _, err := expectedConductanceBound(1, 1, 1); err == nil {
		t.Error("accepted s=1")
	}
	if _, err := expectedConductanceBound(40, 50, 1); err == nil {
		t.Error("accepted dE > s")
	}
	if _, err := expectedConductanceBound(40, 28, 0); err == nil {
		t.Error("accepted alpha=0")
	}
}

func TestTemporalIndependenceBound(t *testing.T) {
	tau, err := TemporalIndependenceBound(1000, 40, 28, 0.96, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if tau <= 0 {
		t.Fatalf("tau = %v", tau)
	}
	// O(n s log n) scaling: doubling n should grow tau by a factor of
	// roughly 2*log(2n)/log(n) (slightly above 2).
	tau2, err := TemporalIndependenceBound(2000, 40, 28, 0.96, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	ratio := tau2 / tau
	if ratio < 2 || ratio > 2.4 {
		t.Errorf("tau scaling for 2x n = %v, want slightly above 2", ratio)
	}
	if _, err := TemporalIndependenceBound(1, 40, 28, 0.96, 0.01); err == nil {
		t.Error("accepted n=1")
	}
	if _, err := TemporalIndependenceBound(1000, 40, 28, 0.96, 1); err == nil {
		t.Error("accepted eps=1")
	}
}

func TestZeroLossAlphaOneScaling(t *testing.T) {
	// For zero loss and alpha = 1 the bound is O(n s log n): check the
	// prefactor matches 16 s^2 (s-1)^2 / (dE^2 (dE-1)^2).
	s, dE := 40, 30.0
	tau, err := TemporalIndependenceBound(500, s, dE, 1, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	sf := float64(s)
	pre := 16 * sf * sf * (sf - 1) * (sf - 1) / (dE * dE * (dE - 1) * (dE - 1))
	want := pre * (500*sf*math.Log(500) + math.Log(400))
	if math.Abs(tau-want) > 1e-6*want {
		t.Errorf("tau = %v, want %v", tau, want)
	}
}
