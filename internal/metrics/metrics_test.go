package metrics

import (
	"math"
	"testing"
)

func TestTrafficLossRate(t *testing.T) {
	tr := Traffic{Sends: 200, Losses: 10, Deliveries: 185, DeadLetters: 5}
	if got := tr.LossRate(); math.Abs(got-0.05) > 1e-12 {
		t.Errorf("LossRate = %v, want 0.05", got)
	}
	if got := (Traffic{}).LossRate(); got != 0 {
		t.Errorf("zero-traffic LossRate = %v, want 0", got)
	}
}
