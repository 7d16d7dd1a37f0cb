// Package pool is the one bounded-worker-pool implementation the
// engine's fan-out layers share. The experiment drivers fan out over
// the twelve platforms; microbench.Run and microbench.RunRobustContext
// fan out over one platform's suite kernels; fit.Bootstrap fans out over
// its replicate fits and fit.MultiStart over its starts. All of them
// run seeded-deterministic work whose outputs must not depend on
// scheduling, so they all use the same order-stable Map and the same
// worker-count policy.
//
// Worker-count policy (Clamp, the single source of truth — the layers
// must not reimplement it):
//
//   - workers <= 0 means "use the machine": runtime.NumCPU() many;
//   - never more workers than items (idle goroutines are waste);
//   - never fewer than one.
package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Clamp resolves a requested worker count against n items: zero or
// negative requests take runtime.NumCPU(), and the result is clamped to
// [1, n] (for n < 1 the result is 1, so a degenerate item count still
// yields a runnable pool).
func Clamp(workers, n int) int {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// mapChunkDivisor sets the dispatch granularity of Map: the item range
// is carved into roughly workers*mapChunkDivisor chunks, so each worker
// claims a few chunks over the run (enough slack to absorb uneven item
// costs) while the per-item synchronization cost drops to one atomic
// add per chunk. A per-item channel send — the previous dispatch — cost
// two goroutine wakeups per item and made workers=2 slower than
// workers=1 on cheap items (see BenchmarkMapDispatch).
const mapChunkDivisor = 4

// Map runs fn over items with at most Clamp(workers, len(items))
// concurrent goroutines and returns the results in item order along
// with a parallel error slice (each entry nil on success). fn receives
// the item's index and value; it must be safe for concurrent use.
// Because results and errors land at their item's index, the output is
// identical at any worker count whenever fn itself is deterministic
// per item — the property the seeded simulation layers rely on.
//
// Dispatch is chunked: workers claim contiguous index ranges off an
// atomic cursor instead of receiving items one by one over a channel,
// so scheduling overhead is independent of the item count. A resolved
// worker count of one runs inline, with no goroutines at all.
func Map[S, T any](items []S, workers int, fn func(int, S) (T, error)) ([]T, []error) {
	n := len(items)
	results := make([]T, n)
	errs := make([]error, n)
	if n == 0 {
		return results, errs
	}
	workers = Clamp(workers, n)
	if workers == 1 {
		for idx := range items {
			results[idx], errs[idx] = fn(idx, items[idx])
		}
		return results, errs
	}
	chunk := n / (workers * mapChunkDivisor)
	if chunk < 1 {
		chunk = 1
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				start := int(next.Add(int64(chunk))) - chunk
				if start >= n {
					return
				}
				end := start + chunk
				if end > n {
					end = n
				}
				for idx := start; idx < end; idx++ {
					results[idx], errs[idx] = fn(idx, items[idx])
				}
			}
		}()
	}
	wg.Wait()
	return results, errs
}

// FirstError returns the lowest-index non-nil error and its index, or
// (-1, nil) when every entry is nil. Reducing by lowest index keeps the
// reported failure independent of goroutine scheduling.
func FirstError(errs []error) (int, error) {
	for i, err := range errs {
		if err != nil {
			return i, err
		}
	}
	return -1, nil
}
