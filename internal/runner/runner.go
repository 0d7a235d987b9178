// Package runner is the parallel scenario executor behind the experiment
// suite. Every experiment in the paper's evaluation replays many
// independent scenario cells — each a testbed restored from a prototype
// onto its own single-threaded sched.Kernel — so the cells can fan out
// across worker goroutines while each cell stays perfectly deterministic.
//
// There are two primitives. Map runs cells: cell i's result lands in slot
// i of the returned slice, and the caller folds that slice sequentially in
// index order. A cell's behaviour must depend only on its index (seeds
// come from sched.DeriveSeed(rootSeed, cellKey), never from shared RNG
// state); the outcome is then bit-for-bit identical for any worker count,
// including the sequential workers=1 path. Run runs tasks — the steps of
// an evaluation — as a graph: each task starts once the task it needs is
// done.
//
// Both draw on one budget, the pool's Workers() slots: a goroutine holds a
// slot while it runs a task or a batch of cells, so every Map and Run on a
// pool, and every Map nested in their cells and tasks, together run at
// most Workers() at any instant. A Map's caller already holds a slot and
// claims contiguous batches of cells from a shared cursor, so the per-cell
// handoff cost is amortized across a batch while stragglers still
// rebalance; helpers join it as slots come free. Runs that cannot benefit
// from fan-out — too few cells to amortize goroutine startup, or a
// single-P runtime where goroutines only time-slice one core — execute
// inline on the calling goroutine. None of this affects results: which
// goroutine runs a cell, or when a task starts, is invisible.
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

// Pool is a scenario worker pool: a budget of Workers() slots. The zero
// value is not usable; call New. Map and Run count their caller as holding
// a slot: a task or a cell does, and so does the one goroutine outside the
// pool that drives it. Two such goroutines sharing a pool would each count
// as the holder of that slot.
type Pool struct {
	workers int
	slots   chan struct{} // one token per slot held: send to take, receive to give back
}

// New returns a pool with the given worker count. workers <= 0 selects
// GOMAXPROCS, the natural width for CPU-bound simulation cells.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: workers, slots: make(chan struct{}, workers)}
	p.slots <- struct{}{} // held by the goroutine that drives the pool
	return p
}

// Workers returns the pool's worker count.
func (p *Pool) Workers() int { return p.workers }

// width returns how many goroutines to fan n cells across: 1 when the run
// is too small to amortize fan-out or the runtime has a single P (where
// extra goroutines only add scheduling overhead to one core).
func (p *Pool) width(n int) int {
	if n < minParallelCells || runtime.GOMAXPROCS(0) == 1 {
		return 1
	}
	return min(p.workers, n)
}

// batchSize picks the contiguous chunk each claim takes from the cursor.
func batchSize(n, w int) int {
	return max(1, min(maxBatch, n/(w*targetBatchesPerWorker)))
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

// run executes fn(i) for every i in [0, n): batches on the caller, and on
// up to w-1 helpers that each wait for a free slot and give up once every
// batch is claimed.
func (p *Pool) run(n int, fn func(i int)) {
	w := p.width(n)
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	batch, last := int64(batchSize(n, w)), int64(n)
	var next atomic.Int64
	claimed := make(chan struct{}) // closed when the last batch is claimed
	work := func() {
		for {
			end := next.Add(batch)
			start := end - batch
			if start >= last {
				return
			}
			if end >= last {
				end = last
				close(claimed)
			}
			for i := start; i < end; i++ {
				fn(int(i))
			}
		}
	}
	var wg sync.WaitGroup
	wg.Add(w - 1)
	for range w - 1 {
		go func() {
			defer wg.Done()
			select {
			case p.slots <- struct{}{}:
				work()
				<-p.slots
			case <-claimed:
			}
		}()
	}
	work()
	// Every batch is claimed: the caller's slot goes to other work while
	// the helpers finish theirs.
	<-p.slots
	wg.Wait()
	p.slots <- struct{}{}
}

// Task is one node of a Run: Needs is the index of the task that must be
// done before it starts (-1 for none; an earlier task), and Do is its
// work, handed the pool its Maps draw slots from.
type Task struct {
	Needs int
	Do    func(p *Pool)
}

// Run runs tasks on p's slots and returns once every task is done. A task
// starts once the one it needs is done and a slot is free; it waits for
// the slot alongside the helpers of the Maps already open. At one worker,
// or on a single-P runtime, the tasks run one at a time in index order on
// the caller. done(i) is called on the caller for each i in increasing
// order, as soon as tasks 0 … i are done.
func Run(p *Pool, tasks []Task, done func(i int)) {
	if p.workers == 1 || runtime.GOMAXPROCS(0) == 1 {
		for i, t := range tasks {
			t.Do(p)
			done(i)
		}
		return
	}
	finished := make([]chan struct{}, len(tasks))
	for i := range finished {
		finished[i] = make(chan struct{})
	}
	for i, t := range tasks {
		go func() {
			if t.Needs >= 0 {
				<-finished[t.Needs]
			}
			p.slots <- struct{}{}
			t.Do(p)
			<-p.slots
			close(finished[i])
		}()
	}
	<-p.slots // the caller only waits: its slot goes to the tasks
	for i := range tasks {
		<-finished[i]
		done(i)
	}
	p.slots <- struct{}{}
}
