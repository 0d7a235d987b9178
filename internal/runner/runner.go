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
// an evaluation — as a graph on one budget of the pool's workers: each
// task starts once the task it needs is done, and the Maps inside the
// tasks draw on the same budget, so at most Workers() goroutines run a
// task or a cell at any instant.
//
// Dispatch policy: workers claim cells in contiguous batches from a shared
// cursor, so the per-cell handoff cost (a claim + potential goroutine
// wakeup) is amortized across a batch while stragglers still rebalance.
// Runs that cannot benefit from fan-out — too few cells to amortize
// goroutine startup, or a single-P runtime where goroutines only
// time-slice one core — execute inline on the calling goroutine, making
// the parallel path never slower than the sequential one. Inside a Run, a
// worker that finishes its task or batch takes the lowest-indexed task
// that can start, otherwise a batch of the oldest Map with cells left; a
// Map whose caller has claimed its last batch lends the caller's worker
// out until the other workers finish its tail. None of this affects
// results: which worker runs a cell, or when a task starts, is invisible.
package runner

import (
	"runtime"
	"slices"
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
// A Pool from New carries no per-run state and may be shared by concurrent
// runs. Run hands its tasks a pool bound to that run's budget, for the
// task's own goroutine (and its cells) to call Map on.
type Pool struct {
	workers int
	b       *budget // the Run this pool's tasks belong to; nil outside any task
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

// run executes fn(i) for every i in [0, n). Outside any task it fans
// across up to p.workers new goroutines with batched claims; inside one it
// offers the batches to the Run's budget.
func (p *Pool) run(n int, fn func(i int)) {
	w := p.width(n)
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	if p.b != nil {
		p.b.fanOut(&cellRun{n: n, batch: batchSize(n, w), fn: fn})
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

// Task is one node of a Run: Needs is the index of the task that must be
// done before it starts (-1 for none; an earlier task), and Do is its
// work, handed the pool its Maps draw workers from.
type Task struct {
	Needs int
	Do    func(p *Pool)
}

// Run runs tasks on p's workers and returns once every task is done. A
// task starts as soon as the one it needs is done and a worker is free; a
// free worker takes the lowest-indexed task that can start, otherwise
// cells of a Map a running task opened. At one worker, or on a single-P
// runtime, the tasks therefore run one at a time in index order. done(i)
// is called for each i in increasing order, as soon as tasks 0 … i are
// done, never two calls at once; it runs on a worker, so it should be
// brief.
func Run(p *Pool, tasks []Task, done func(i int)) {
	b := &budget{idle: p.workers, tasks: tasks, state: make([]taskState, len(tasks)), done: done}
	if runtime.GOMAXPROCS(0) == 1 {
		b.idle = 1
	}
	b.view = &Pool{workers: p.workers, b: b}
	for i, t := range tasks {
		if t.Needs < 0 {
			b.state[i] = ready
		}
	}
	b.mu.Lock()
	b.dispatch()
	b.mu.Unlock()
	b.wg.Wait()
}

type taskState uint8

const (
	waiting taskState = iota // for the task it needs
	ready
	running
	finished
)

// budget is one Run: its tasks, the Maps they have open, and the workers
// not handed out. A worker is a goroutine holding one of the budget's
// slots; it runs a task or a batch of cells, then looks here for the next.
type budget struct {
	mu       sync.Mutex
	wg       sync.WaitGroup // the worker goroutines
	view     *Pool          // what the tasks are handed
	idle     int            // slots no worker holds
	starting int            // workers started that have not yet looked for work
	tasks    []Task
	state    []taskState
	maps     []*cellRun // open Maps with cells left to claim, oldest first
	done     func(i int)
	emitted  int  // tasks 0 … emitted-1 were passed to done
	emitting bool // a worker is calling done
}

// cellRun is one Map inside a task.
type cellRun struct {
	n, batch, next int
	busy           int // batches claimed and not finished
	fn             func(i int)
	caller         chan struct{} // closed to hand the caller a worker back
}

// dispatch starts a worker for each piece of claimable work no started
// worker is on its way to, while slots are free. b.mu is held.
func (b *budget) dispatch() {
	for b.idle > 0 && b.claimable() > b.starting {
		b.idle--
		b.starting++
		b.wg.Add(1)
		go b.work()
	}
}

// claimable counts the tasks that can start and the unclaimed batches of
// the open Maps. b.mu is held.
func (b *budget) claimable() int {
	n := 0
	for _, s := range b.state {
		if s == ready {
			n++
		}
	}
	for _, m := range b.maps {
		n += (m.n - m.next + m.batch - 1) / m.batch
	}
	return n
}

// take claims m's next batch. b.mu is held.
func (b *budget) take(m *cellRun) (start, end int) {
	start = m.next
	m.next = min(m.n, start+m.batch)
	m.busy++
	if m.next == m.n {
		b.maps = slices.DeleteFunc(b.maps, func(o *cellRun) bool { return o == m })
	}
	return start, m.next
}

// work is a worker: it runs tasks and batches until none is left to claim,
// then gives its slot back, or hands it to a Map's waiting caller.
func (b *budget) work() {
	defer b.wg.Done()
	b.mu.Lock()
	b.starting--
	for {
		if t := slices.Index(b.state, ready); t >= 0 {
			b.state[t] = running
			b.dispatch()
			b.mu.Unlock()
			b.tasks[t].Do(b.view)
			b.mu.Lock()
			b.finish(t)
			continue
		}
		if len(b.maps) > 0 {
			m := b.maps[0]
			start, end := b.take(m)
			b.dispatch()
			b.mu.Unlock()
			for i := start; i < end; i++ {
				m.fn(i)
			}
			b.mu.Lock()
			if m.busy--; m.busy == 0 && m.caller != nil {
				close(m.caller) // this worker's slot passes to the Map's caller
				b.mu.Unlock()
				return
			}
			continue
		}
		b.idle++
		b.mu.Unlock()
		return
	}
}

// finish marks task t done, readies the tasks that need it, and reports
// every task the done prefix now covers, unless another worker already
// is. b.mu is held; it is released around each done call.
func (b *budget) finish(t int) {
	b.state[t] = finished
	for j := t + 1; j < len(b.tasks); j++ {
		if b.tasks[j].Needs == t {
			b.state[j] = ready
		}
	}
	if b.emitting {
		return
	}
	b.emitting = true
	for b.emitted < len(b.tasks) && b.state[b.emitted] == finished {
		i := b.emitted
		b.emitted++
		b.mu.Unlock()
		b.done(i)
		b.mu.Lock()
	}
	b.emitting = false
}

// fanOut runs m's cells on the calling worker and any the budget frees up.
// Once the caller has claimed the last batch and others still run some, it
// lends its slot out and waits for the worker that finishes the last one
// to hand a slot back, so a Map's tail leaves no worker idle.
func (b *budget) fanOut(m *cellRun) {
	b.mu.Lock()
	b.maps = append(b.maps, m)
	for m.next < m.n {
		start, end := b.take(m)
		b.dispatch()
		b.mu.Unlock()
		for i := start; i < end; i++ {
			m.fn(i)
		}
		b.mu.Lock()
		m.busy--
	}
	if m.busy == 0 {
		b.mu.Unlock()
		return
	}
	m.caller = make(chan struct{})
	b.idle++
	b.dispatch()
	b.mu.Unlock()
	<-m.caller
}
