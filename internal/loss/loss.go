// Package loss implements the message-loss models of Section 4.
//
// The paper analyzes uniform i.i.d. loss: "a message is lost with
// probability l, identical for all messages, and independent of other
// messages". Uniform is therefore the model every experiment uses. The
// package also provides a Gilbert-Elliott bursty model as an extension
// ablation and a per-destination model (the paper notes nonuniform loss
// occurs in practice but is harder to analyze).
package loss

import (
	"fmt"

	"sendforget/internal/peer"
	"sendforget/internal/rng"
)

// Model decides the fate of each sent message. Implementations may be
// stateful (burst models); they are not safe for concurrent use unless
// documented otherwise.
type Model interface {
	// Lost reports whether the next message, addressed to to, is dropped.
	Lost(to peer.ID, r *rng.RNG) bool
	// Rate returns the long-run average loss probability.
	Rate() float64
	// String names the model for experiment logs.
	String() string
}

// Forker is implemented by the stateful models. Fork returns an independent
// model with the same parameters in its initial state, sharing no mutable
// state with the receiver: an engine that rules on messages in parallel gives
// each of its streams a fork, so a burst is a burst over the messages one
// stream sees. A model that does not implement it must be stateless, and is
// shared.
type Forker interface {
	Fork() Model
}

// None never drops messages. It is the l = 0 setting of the paper.
type None struct{}

// Lost always reports false.
func (None) Lost(peer.ID, *rng.RNG) bool { return false }

// Rate returns 0.
func (None) Rate() float64 { return 0 }

func (None) String() string { return "none" }

// Uniform drops each message independently with probability P — the paper's
// uniform i.i.d. loss model.
type Uniform struct {
	P float64
}

// NewUniform returns a Uniform model, validating 0 <= p <= 1.
func NewUniform(p float64) (Uniform, error) {
	if !(p >= 0 && p <= 1) {
		return Uniform{}, fmt.Errorf("loss: probability %v outside [0,1]", p)
	}
	return Uniform{P: p}, nil
}

// MustUniform is NewUniform that panics on invalid p; for tests and
// experiment tables with constant parameters.
func MustUniform(p float64) Uniform {
	m, err := NewUniform(p)
	if err != nil {
		panic(err)
	}
	return m
}

// Lost drops the message with probability P.
func (u Uniform) Lost(_ peer.ID, r *rng.RNG) bool { return r.Bernoulli(u.P) }

// Rate returns P.
func (u Uniform) Rate() float64 { return u.P }

func (u Uniform) String() string { return fmt.Sprintf("uniform(%.3g)", u.P) }

// GilbertElliott is a two-state Markov burst-loss model: a Good state with
// loss PGood and a Bad state with loss PBad, with per-message transition
// probabilities GoodToBad and BadToGood. It extends the paper's model to
// correlated loss for the burst-loss ablation.
type GilbertElliott struct {
	PGood, PBad          float64
	GoodToBad, BadToGood float64
	bad                  bool // current state
}

// NewGilbertElliott validates the parameters and returns a model starting in
// the Good state.
func NewGilbertElliott(pGood, pBad, goodToBad, badToGood float64) (*GilbertElliott, error) {
	for _, p := range []float64{pGood, pBad, goodToBad, badToGood} {
		if !(p >= 0 && p <= 1) {
			return nil, fmt.Errorf("loss: parameter %v outside [0,1]", p)
		}
	}
	if goodToBad+badToGood == 0 {
		return nil, fmt.Errorf("loss: degenerate chain with no transitions")
	}
	return &GilbertElliott{PGood: pGood, PBad: pBad, GoodToBad: goodToBad, BadToGood: badToGood}, nil
}

// BurstyWithRate builds a Gilbert-Elliott model whose stationary average
// loss rate equals rate, concentrated in bursts: the Bad state always drops
// (PBad = 1), the Good state never drops, and the expected burst length is
// burstLen messages. Used by the abl1 experiment to compare bursty and
// uniform loss at equal average rates.
func BurstyWithRate(rate float64, burstLen float64) (*GilbertElliott, error) {
	if !(rate > 0 && rate < 1) {
		return nil, fmt.Errorf("loss: bursty rate %v outside (0,1)", rate)
	}
	if !(burstLen >= 1) {
		return nil, fmt.Errorf("loss: burst length %v < 1", burstLen)
	}
	// Stationary P(bad) = g2b / (g2b + b2g) must equal rate, and mean burst
	// length 1/b2g must equal burstLen.
	b2g := 1 / burstLen
	g2b := rate * b2g / (1 - rate)
	if g2b > 1 {
		return nil, fmt.Errorf("loss: rate %v with burst length %v needs transition probability > 1", rate, burstLen)
	}
	return NewGilbertElliott(0, 1, g2b, b2g)
}

// Lost advances the channel state and drops according to the current state.
func (g *GilbertElliott) Lost(_ peer.ID, r *rng.RNG) bool {
	if g.bad {
		if r.Bernoulli(g.BadToGood) {
			g.bad = false
		}
	} else {
		if r.Bernoulli(g.GoodToBad) {
			g.bad = true
		}
	}
	p := g.PGood
	if g.bad {
		p = g.PBad
	}
	return r.Bernoulli(p)
}

// Fork returns a model with g's parameters, starting in the Good state.
func (g *GilbertElliott) Fork() Model {
	return &GilbertElliott{PGood: g.PGood, PBad: g.PBad, GoodToBad: g.GoodToBad, BadToGood: g.BadToGood}
}

// Rate returns the stationary average loss rate of the two-state chain.
func (g *GilbertElliott) Rate() float64 {
	pBad := g.GoodToBad / (g.GoodToBad + g.BadToGood)
	return (1-pBad)*g.PGood + pBad*g.PBad
}

func (g *GilbertElliott) String() string {
	return fmt.Sprintf("gilbert-elliott(rate=%.3g)", g.Rate())
}
