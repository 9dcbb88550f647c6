// Package pool provides the fixed-size goroutine worker pool shared by the
// batched thermal-simulation APIs (hotspot.ReplayBatchResults,
// scenario.RunGrid, the service's steady sweeps). It exists so the
// concurrency pattern — worker clamp, job fan-out, per-worker state,
// completion barrier — lives in exactly one place; DESIGN.md §1.3 records
// the concurrency model (immutable shared operators, one solving session
// per worker) these pools implement.
package pool

import (
	"runtime"
	"sync"
)

// RunChunked deals the given indices round-robin into min(workers, len)
// chunks — workers ≤ 0 uses GOMAXPROCS — and runs each chunk on the pool.
// It is the shared front half of every lockstep batch API (hotspot replay
// batches, scenario grids): the deal is deterministic, so per-chunk
// grouping downstream is too, and results never depend on the worker count. Chunk functions must record
// their own results/errors; RunChunked only guarantees completion.
func RunChunked(indices []int, workers int, run func(chunk []int)) {
	if len(indices) == 0 {
		return
	}
	w := workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > len(indices) {
		w = len(indices)
	}
	chunks := make([][]int, w)
	for i, idx := range indices {
		chunks[i%w] = append(chunks[i%w], idx)
	}
	Run(w, w, func() func(int) {
		return func(c int) { run(chunks[c]) }
	})
}

// Run invokes a job function for every index in [0, n) across a pool of
// worker goroutines and returns once all jobs have completed. workers ≤ 0
// uses GOMAXPROCS; the pool never exceeds n workers. Each worker calls
// newWorker once to obtain its job function, which is where per-worker state
// (scratch buffers, operator caches) is created; jobs are handed to workers
// in index order but may complete in any order. Job functions must record
// their own results/errors — Run only guarantees completion.
func Run(n, workers int, newWorker func() func(job int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run := newWorker()
			for j := range idx {
				run(j)
			}
		}()
	}
	for j := 0; j < n; j++ {
		idx <- j
	}
	close(idx)
	wg.Wait()
}
