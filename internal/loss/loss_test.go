package loss

import (
	"math"
	"testing"

	"sendforget/internal/peer"
	"sendforget/internal/rng"
)

func TestNoneNeverDrops(t *testing.T) {
	r := rng.New(1)
	m := None{}
	for i := 0; i < 1000; i++ {
		if m.Lost(0, r) {
			t.Fatal("None dropped a message")
		}
	}
	if m.Rate() != 0 {
		t.Errorf("None.Rate = %v, want 0", m.Rate())
	}
}

func TestNewUniformValidates(t *testing.T) {
	if _, err := NewUniform(-0.1); err == nil {
		t.Error("NewUniform(-0.1) accepted")
	}
	if _, err := NewUniform(1.1); err == nil {
		t.Error("NewUniform(1.1) accepted")
	}
	if _, err := NewUniform(math.NaN()); err == nil {
		t.Error("NewUniform(NaN) accepted")
	}
	m, err := NewUniform(0.25)
	if err != nil {
		t.Fatalf("NewUniform(0.25) rejected: %v", err)
	}
	if m.Rate() != 0.25 {
		t.Errorf("Rate = %v, want 0.25", m.Rate())
	}
}

func TestMustUniformPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustUniform(2) did not panic")
		}
	}()
	MustUniform(2)
}

func TestUniformEmpiricalRate(t *testing.T) {
	r := rng.New(2)
	m := MustUniform(0.05)
	const trials = 200000
	drops := 0
	for i := 0; i < trials; i++ {
		if m.Lost(0, r) {
			drops++
		}
	}
	rate := float64(drops) / trials
	// 5-sigma band for Binomial(2e5, 0.05): +-0.0024.
	if math.Abs(rate-0.05) > 0.0024 {
		t.Errorf("empirical rate %v deviates from 0.05 beyond 5 sigma", rate)
	}
}

func TestUniformBoundaries(t *testing.T) {
	r := rng.New(3)
	always := MustUniform(1)
	never := MustUniform(0)
	for i := 0; i < 100; i++ {
		if !always.Lost(0, r) {
			t.Fatal("Uniform(1) delivered a message")
		}
		if never.Lost(0, r) {
			t.Fatal("Uniform(0) dropped a message")
		}
	}
}

func TestGilbertElliottValidation(t *testing.T) {
	if _, err := NewGilbertElliott(0, 1.5, 0.1, 0.1); err == nil {
		t.Error("accepted PBad > 1")
	}
	if _, err := NewGilbertElliott(0, 1, 0, 0); err == nil {
		t.Error("accepted degenerate chain")
	}
	for i := range 4 {
		p := []float64{0, 1, 0.1, 0.1}
		p[i] = math.NaN()
		if _, err := NewGilbertElliott(p[0], p[1], p[2], p[3]); err == nil {
			t.Errorf("accepted NaN parameter %d", i)
		}
	}
}

func TestBurstyWithRateStationary(t *testing.T) {
	m, err := BurstyWithRate(0.05, 10)
	if err != nil {
		t.Fatalf("BurstyWithRate: %v", err)
	}
	if math.Abs(m.Rate()-0.05) > 1e-12 {
		t.Errorf("declared Rate = %v, want 0.05", m.Rate())
	}
	// The model itself, then a fork of it taken after the parent has run:
	// what a shard of the sharded engine rules with.
	for _, model := range []func() Model{func() Model { return m }, m.Fork} {
		m := model()
		if math.Abs(m.Rate()-0.05) > 1e-12 {
			t.Errorf("declared Rate = %v, want 0.05", m.Rate())
		}
		r := rng.New(4)
		const trials = 400000
		drops := 0
		for i := 0; i < trials; i++ {
			if m.Lost(0, r) {
				drops++
			}
		}
		rate := float64(drops) / trials
		// Correlated samples widen the band; allow 20% relative error.
		if math.Abs(rate-0.05) > 0.01 {
			t.Errorf("empirical bursty rate %v, want ~0.05", rate)
		}
	}
}

func TestBurstyWithRateProducesBursts(t *testing.T) {
	m, err := BurstyWithRate(0.05, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range []func() Model{func() Model { return m }, m.Fork} {
		m := model()
		r := rng.New(5)
		// Measure the mean run length of consecutive drops; it should be well
		// above 1 (a uniform model at 5% has mean run length ~1.05).
		const trials = 400000
		runs, dropped := 0, 0
		inRun := false
		for i := 0; i < trials; i++ {
			if m.Lost(0, r) {
				dropped++
				if !inRun {
					runs++
					inRun = true
				}
			} else {
				inRun = false
			}
		}
		if runs == 0 {
			t.Fatal("no loss bursts observed")
		}
		meanRun := float64(dropped) / float64(runs)
		if meanRun < 5 {
			t.Errorf("mean burst length %v, want >= 5 (configured 10)", meanRun)
		}
	}
}

// TestForkIsIndependent pins what Forker promises: a fork has its parent's
// parameters and the initial state — Good for Gilbert-Elliott — wherever
// the parent stands, and running one never moves the other.
func TestForkIsIndependent(t *testing.T) {
	r := rng.New(9)
	stuck, err := NewGilbertElliott(0, 1, 1, 0) // enters Bad on the first message and stays
	if err != nil {
		t.Fatal(err)
	}
	stuck.Lost(0, r)
	f := stuck.Fork().(*GilbertElliott)
	if !stuck.bad || f.bad {
		t.Errorf("parent bad=%v, fork bad=%v: want a Bad parent and a fork in the Good state", stuck.bad, f.bad)
	}
	if p := *stuck; f.PGood != p.PGood || f.PBad != p.PBad || f.GoodToBad != p.GoodToBad || f.BadToGood != p.BadToGood {
		t.Errorf("fork %+v does not carry the parameters of %+v", *f, p)
	}
	fresh, err := NewGilbertElliott(0, 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	fresh.Fork().Lost(0, r)
	if fresh.bad {
		t.Error("running a fork moved its parent out of the Good state")
	}
	for _, stateless := range []Model{None{}, MustUniform(0.5)} {
		if _, ok := stateless.(Forker); ok {
			t.Errorf("%v is stateless and implements Forker", stateless)
		}
	}
}

func TestBurstyWithRateValidation(t *testing.T) {
	if _, err := BurstyWithRate(0, 10); err == nil {
		t.Error("accepted rate 0")
	}
	if _, err := BurstyWithRate(1, 10); err == nil {
		t.Error("accepted rate 1")
	}
	if _, err := BurstyWithRate(0.5, 0.5); err == nil {
		t.Error("accepted burst length < 1")
	}
	if _, err := BurstyWithRate(0.99, 1); err == nil {
		t.Error("accepted infeasible rate/burst combination")
	}
	if _, err := BurstyWithRate(math.NaN(), 10); err == nil {
		t.Error("accepted rate NaN")
	}
	if _, err := BurstyWithRate(0.05, math.NaN()); err == nil {
		t.Error("accepted burst length NaN")
	}
}

func TestNewPerDestValidates(t *testing.T) {
	for _, bad := range []float64{-0.1, 1.1, math.NaN()} {
		if _, err := NewPerDest(bad, nil); err == nil {
			t.Errorf("NewPerDest accepted default rate %v", bad)
		}
		if _, err := NewPerDest(0, map[peer.ID]float64{3: bad}); err == nil {
			t.Errorf("NewPerDest accepted rate %v", bad)
		}
	}
	m, err := NewPerDest(0, map[peer.ID]float64{3: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(7)
	for i := 0; i < 100; i++ {
		if !m.Lost(3, r) || m.Lost(4, r) {
			t.Fatal("PerDest ignored the destination: want 3 always dropped, 4 never")
		}
	}
}

func TestStringers(t *testing.T) {
	if None.String(None{}) != "none" {
		t.Error("None.String wrong")
	}
	if MustUniform(0.01).String() != "uniform(0.01)" {
		t.Errorf("Uniform.String = %q", MustUniform(0.01).String())
	}
	m, _ := BurstyWithRate(0.05, 10)
	if m.String() == "" {
		t.Error("GilbertElliott.String empty")
	}
}
