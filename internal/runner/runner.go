// Package runner is the parallel scenario executor behind the experiment
// suite. Every experiment in the paper's evaluation replays many
// independent scenario cells — each a testbed restored from a prototype
// onto its own single-threaded sched.Kernel — so the cells can fan out
// across worker goroutines while each cell stays perfectly deterministic.
//
// There is one primitive, Map: cell i's result lands in slot i of the
// returned slice, and the caller folds that slice sequentially in index
// order. A cell's behaviour must depend only on its index (seeds come from
// sched.DeriveSeed(rootSeed, cellKey), never from shared RNG state); the
// outcome is then bit-for-bit identical for any worker count, including
// the sequential workers=1 path.
//
// Dispatch policy: workers claim cells in contiguous batches from a shared
// atomic cursor, so the per-cell handoff cost (atomic RMW + potential
// goroutine wakeup) is amortized across a batch while stragglers still
// rebalance. Runs that cannot benefit from fan-out — too few cells to
// amortize goroutine startup, or a single-P runtime where goroutines only
// time-slice one core — execute inline on the calling goroutine, making
// the parallel path never slower than the sequential one. None of this
// affects results: which worker runs a cell is invisible.
package runner

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// minParallelCells is the fan-out threshold: below it, goroutine startup
// and the final barrier cost more than the cells themselves on the small
// experiments (figure11a, figure12), so the pool runs them inline.
const minParallelCells = 8

// targetBatchesPerWorker balances handoff amortization against load
// balancing: each worker claims ~4 batches over a run, so one slow batch
// can still be compensated by the others without per-cell dispatch.
const targetBatchesPerWorker = 4

// maxBatch caps the batch size so very large runs keep rebalancing.
const maxBatch = 64

// Pool is a scenario worker pool. The zero value is not usable; call New.
// A Pool carries no per-run state and may be shared by concurrent runs.
type Pool struct {
	workers int
}

// New returns a pool with the given worker count. workers <= 0 selects
// GOMAXPROCS, the natural width for CPU-bound simulation cells.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// Workers returns the pool's worker count.
func (p *Pool) Workers() int { return p.workers }

// width returns how many goroutines to fan n cells across: 1 when the run
// is too small to amortize fan-out or the runtime has a single P (where
// extra goroutines only add scheduling overhead to one core).
func (p *Pool) width(n int) int {
	w := p.workers
	if w > n {
		w = n
	}
	if n < minParallelCells || runtime.GOMAXPROCS(0) == 1 {
		return 1
	}
	return w
}

// batchSize picks the contiguous chunk each claim takes from the cursor.
func batchSize(n, w int) int {
	b := n / (w * targetBatchesPerWorker)
	if b < 1 {
		b = 1
	}
	if b > maxBatch {
		b = maxBatch
	}
	return b
}

// run executes fn(i) for every i in [0, n), fanning across up to
// p.workers goroutines with batched claims.
func (p *Pool) run(n int, fn func(i int)) {
	w := p.width(n)
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	batch := int64(batchSize(n, w))
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				end := next.Add(batch)
				start := end - batch
				if start >= int64(n) {
					return
				}
				if end > int64(n) {
					end = int64(n)
				}
				for i := start; i < end; i++ {
					fn(int(i))
				}
			}
		}()
	}
	wg.Wait()
}

// Map runs fn for every index in [0, n) on the pool and returns the
// results in index order. Each result lands in its own pre-allocated
// slot, so no synchronization or ordering sensitivity exists beyond the
// final barrier.
func Map[T any](p *Pool, n int, fn func(i int) T) []T {
	out := make([]T, n)
	p.run(n, func(i int) { out[i] = fn(i) })
	return out
}
