// Package sharedguard exercises the happens-before engine's access-pair
// judgement: one representative of every proof path that silences a
// conflicting pair — mutex exclusion, caller-private value storage — plus
// the pair no proof covers and a reviewed suppression.
package sharedguard

import "sync"

// srv models one substrate instance: a mutex-guarded counter and one field
// with no synchronization story.
type srv struct {
	mu      sync.Mutex
	guarded int
	racy    int
	allowed int
}

// loop is the worker goroutine body: its guarded bump is excluded by mu,
// and its racy bump is the real finding.
func (s *srv) loop(wg *sync.WaitGroup) {
	defer wg.Done()
	s.mu.Lock()
	s.guarded++
	s.mu.Unlock()
	s.racy++ // want `unsynchronized write to racy in \(srv\)\.loop: conflicts with the write in Run at sharedguard/sharedguard\.go:\d+`
}

// Run is an external entry point. The guarded bump holds mu on both sides;
// the racy bump after the spawn has no lock and runs on no fresh instance.
func Run(s *srv) {
	var wg sync.WaitGroup
	wg.Add(1)
	go s.loop(&wg)
	s.mu.Lock()
	s.guarded++
	s.mu.Unlock()
	s.racy++
	wg.Wait()
}

type stats struct{ hits int }

// Bump writes shared stats storage from a goroutine: the access Tally's
// bumps would conflict with if they were not private.
func Bump(st *stats) {
	go func() {
		st.hits++
	}()
}

// Tally works on a caller-private value: the struct lives in a local whose
// address is never taken, so its accesses can never be the storage Bump's
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
