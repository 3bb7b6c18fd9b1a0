package main

import (
	gort "runtime"
	"sync"
	"time"
)

// The host this benchmark runs on is a small virtual machine whose memory
// system is shared with neighbours (AA.md has the recordings). They disturb a
// run in two ways. Bursts, tens of milliseconds long, slow some rounds and
// not others: the end-to-end rates are therefore computed from the quiet
// quartile of the rounds, not from their mean or median (quietSeconds). And
// over minutes the level itself moves, for memory-bound code by as much as 2x
// while a compute-bound loop stays flat and the guest sees no steal time: so
// the timed region and every set-up are interleaved with a fixed probe, and
// the end-to-end times are divided by how much slower than nominal the probe
// ran. A second in this benchmark is a second on a host in the nominal state.
// The probe shares no code with the repository, so a change to the repository
// cannot move it.

// hostProbe is a fixed memory-bound kernel with the access pattern of a
// gossip round, run on as many goroutines as the sharded engine has workers:
// each lane walks its node rows in order, reads two random slots of the row
// and overwrites two slots of a random other row. The lanes together own a
// slot array the size of sharded-sf-100k's (16 MB, larger than L2).
type hostProbe struct {
	lanes []probeLane
	steps uint64    // per lane and call
	last  time.Time // end of the latest call
	// nsPerStep holds one sample per call since the last take.
	nsPerStep []float64
}

type probeLane struct {
	slots []int32
	x     uint64
}

const (
	probeRows, probeCols = 100000, 40
	// probeSteps is what one call costs each lane, about a quarter of a round
	// of sharded-sf-100k; a smoke run probes for a twentieth of that.
	probeSteps = 50000
	// probeGap is how long the timed region runs between two calls: short
	// enough for a few hundred samples per run, long enough that the probe
	// takes 2% of the time and evicts the workload's cache lines that rarely.
	probeGap = 100 * time.Millisecond
	// probeNominalNS is the cost of one step in the host state the calibrated
	// times refer to: the quiet quartile on the box the benchmark was built
	// on (2 vCPUs, so two lanes), at its calmest.
	probeNominalNS = 36.0
)

func newHostProbe(steps uint64) *hostProbe {
	p := &hostProbe{lanes: make([]probeLane, gort.GOMAXPROCS(0)), steps: steps}
	rows := probeRows / len(p.lanes)
	for l := range p.lanes {
		slots := make([]int32, rows*probeCols)
		for i := range slots {
			slots[i] = int32(i)
		}
		p.lanes[l] = probeLane{slots: slots, x: 88172645463325252 + uint64(l)*0x9e3779b97f4a7c15}
	}
	return p
}

// run calls the kernel once on every lane and records the wall-clock cost of
// a step.
func (p *hostProbe) run() {
	start := time.Now()
	var wg sync.WaitGroup
	for l := range p.lanes {
		wg.Add(1)
		go func(lane *probeLane) {
			defer wg.Done()
			lane.walk(p.steps)
		}(&p.lanes[l])
	}
	wg.Wait()
	p.last = time.Now()
	p.nsPerStep = append(p.nsPerStep, float64(p.last.Sub(start))/float64(p.steps))
}

func (l *probeLane) walk(steps uint64) {
	x, rows := l.x, uint64(len(l.slots)/probeCols)
	for i := uint64(0); i < steps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		row := (i % rows) * probeCols
		other := ((x >> 32) % rows) * probeCols
		at := (x >> 16) % (probeCols - 1)
		a, b := l.slots[row+(x>>8)%probeCols], l.slots[row+(x>>20)%probeCols]
		l.slots[other+at] = a ^ int32(i)
		l.slots[other+at+1] = b + 1
	}
	l.x = x
}

// take returns the samples recorded since the last take.
func (p *hostProbe) take() []float64 {
	s := p.nsPerStep
	p.nsPerStep = nil
	return s
}

// quietSlowdown is the probe's quiet quartile relative to nominal: the
// counterpart of quietSeconds, for times computed from quiet rounds.
func quietSlowdown(nsPerStep []float64) float64 {
	return percentile(nsPerStep, quietQuantile) / probeNominalNS
}

// meanSlowdown is the probe's mean relative to nominal: the counterpart of a
// time that was measured as one stretch, bursts included, as a set-up is.
func meanSlowdown(nsPerStep []float64) float64 {
	sum := 0.0
	for _, v := range nsPerStep {
		sum += v
	}
	return sum / float64(len(nsPerStep)) / probeNominalNS
}
