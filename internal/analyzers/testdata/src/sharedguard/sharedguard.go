// Package sharedguard exercises the happens-before engine's access-pair
// classification: one representative of every proof path that silences a
// conflicting pair — mutex exclusion, the spawn edge, the WaitGroup join
// edge, region disjointness, caller-private value storage — plus the pair
// no proof covers and a reviewed suppression.
package sharedguard

import "sync"

// srv models one substrate instance: a mutex-guarded counter, state ordered
// by the spawn and join edges, and one field with no synchronization story.
type srv struct {
	mu      sync.Mutex
	guarded int
	ordered int
	joined  int
	racy    int
	allowed int
}

// loop is the worker goroutine body: its guarded bump is excluded by mu,
// its ordered read happens after the pre-spawn write, and its racy bump is
// the real finding.
func (s *srv) loop(wg *sync.WaitGroup) {
	defer wg.Done()
	s.mu.Lock()
	s.guarded++
	s.mu.Unlock()
	_ = s.ordered
	s.racy++ // want `unsynchronized write to racy in \(srv\)\.loop: conflicts with the write in Run at sharedguard/sharedguard\.go:\d+`
}

// Run is an external entry point. The write to ordered precedes the spawn
// (goroutine-creation edge), the guarded bump holds mu on both sides, the
// joined read follows wg.Wait() (join edge) — and the racy bump after the
// spawn has no ordering, no lock, and no confinement argument.
func Run(s *srv) {
	s.ordered = 1
	var wg sync.WaitGroup
	wg.Add(2)
	go s.loop(&wg)
	go func() {
		s.joined++
		wg.Done()
	}()
	s.mu.Lock()
	s.guarded++
	s.mu.Unlock()
	s.racy++
	wg.Wait()
	_ = s.joined
}

// stats is storage embedded by value in two unrelated owners, so the field
// object is one but the regions differ.
type stats struct{ hits int }

type alpha struct{ st stats }

type beta struct{ st stats }

// Mix bumps the same field object through disjoint regions: alpha storage
// and beta storage cannot overlap, so the concurrent pair is not a race
// even under instance-insensitive field keying.
func Mix(a *alpha, b *beta) {
	go func() {
		a.st.hits++
	}()
	b.st.hits++
}

// Tally works on a caller-private value: the struct lives in a local whose
// address is never taken, so its accesses can never be the storage Mix's
// goroutine touches.
func Tally(n int) int {
	var acc stats
	for i := 0; i < n; i++ {
		acc.hits++
	}
	return acc.hits
}

// Dump races Run's protocol on purpose: callers only invoke Dump after the
// workers have quiesced, an external contract the engine cannot see, so
// the pair carries a reviewed suppression instead of a fix.
func Dump(s *srv) {
	go func() {
		//lint:allow sharedguard Dump only runs after the workers have quiesced (protocol outside the model)
		s.allowed++
	}()
	s.allowed++
}

// half is guarded on one side only.
type half struct {
	mu sync.Mutex
	n  int
}

func (h *half) work() {
	h.mu.Lock()
	h.n++ // want `unsynchronized write to n in \(half\)\.work: conflicts with the write in HalfGuarded`
	h.mu.Unlock()
}

// HalfGuarded takes mu on one branch only. After the join the lock is held
// on some paths, not all — which protects nothing, so the race proofs join
// by intersection (must hold); a union would call the bump below excluded.
func HalfGuarded(h *half, lock bool) {
	go h.work()
	if lock {
		h.mu.Lock()
	}
	h.n++
	if lock {
		h.mu.Unlock()
	}
}
