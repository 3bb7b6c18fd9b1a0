package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// sweepWorkers bounds the worker pool used by Sweep callers in this package
// (0 selects GOMAXPROCS). It is a package variable so determinism tests can
// pin specific pool sizes.
var sweepWorkers = 0

// Sweep evaluates task(0..n-1) on a pool of at most workers goroutines
// (workers <= 0 selects GOMAXPROCS) and returns the results in input order.
// Tasks must be independent; the experiment runners give each task its own
// RNG seeded rng.DeriveSeed(seed, index), so the per-point results — and therefore the
// assembled report — are byte-identical however many workers ran them. If
// several tasks fail, the error of the lowest index wins, matching what a
// sequential loop would have returned first.
func Sweep[T any](n, workers int, task func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	results := make([]T, n)
	errs := make([]error, n)
	var next atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				results[i], errs[i] = task(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}
