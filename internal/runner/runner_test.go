package runner

import (
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestNewDefaultsToGOMAXPROCS(t *testing.T) {
	if got := New(0).Workers(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("New(0).Workers() = %d, want %d", got, runtime.GOMAXPROCS(0))
	}
	if got := New(-3).Workers(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("New(-3).Workers() = %d, want %d", got, runtime.GOMAXPROCS(0))
	}
	if got := New(5).Workers(); got != 5 {
		t.Fatalf("New(5).Workers() = %d, want 5", got)
	}
}

func TestMapOrderAndCoverage(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		got := Map(New(workers), 100, func(i int) int { return i * i })
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	if got := Map(New(4), 0, func(i int) int { return i }); len(got) != 0 {
		t.Fatalf("Map over 0 cells returned %v", got)
	}
}

func TestMapRunsEachCellOnce(t *testing.T) {
	var calls atomic.Int64
	counts := Map(New(8), 500, func(i int) int {
		calls.Add(1)
		return i
	})
	if calls.Load() != 500 {
		t.Fatalf("fn called %d times, want 500", calls.Load())
	}
	if len(counts) != 500 {
		t.Fatalf("got %d results, want 500", len(counts))
	}
}

// spin burns a little CPU, so that work units overlap when they can.
func spin(n int) int {
	x := n
	for i := 0; i < 2000; i++ {
		x = x*1103515245 + 12345
	}
	return x
}

// gauge counts the tasks and cells running at once and keeps the most it
// saw.
type gauge struct{ now, high atomic.Int64 }

func (g *gauge) enter() {
	n := g.now.Add(1)
	for h := g.high.Load(); n > h && !g.high.CompareAndSwap(h, n); h = g.high.Load() {
	}
}

func (g *gauge) leave() { g.now.Add(-1) }

// settle waits for the goroutine count to fall back to base: a worker
// that has signalled its exit may not have returned yet.
func settle(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left behind", runtime.NumGoroutine()-base)
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}

// Run holds every task and every cell of the Maps inside them to one
// budget of Workers() goroutines, reports tasks in index order, gives the
// same results at any worker count and leaves no goroutine behind.
func TestRunBudget(t *testing.T) {
	// Task i needs task needs[i]; some open Maps of their own, one of them
	// nested in another's cells.
	needs := []int{-1, -1, 0, -1, 3, 3, -1, 1, -1, 8, 8, 4}
	var want [][]int
	for _, n := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
		base := runtime.NumGoroutine()
		var g gauge
		results := make([][]int, len(needs))
		tasks := make([]Task, len(needs))
		for i, need := range needs {
			tasks[i] = Task{Needs: need, Do: func(p *Pool) {
				g.enter()
				x := spin(i)
				g.leave()
				cells := 3 + 7*(i%4) // below and above the fan-out threshold
				results[i] = Map(p, cells, func(c int) int {
					g.enter()
					v := spin(i*100 + c)
					g.leave()
					if i == 5 && c == 0 {
						v += len(Map(p, 20, func(d int) int { g.enter(); defer g.leave(); return spin(d) }))
					}
					return v
				})
				results[i] = append(results[i], x)
			}}
		}
		var reported []int
		Run(New(n), tasks, func(i int) {
			if results[i] == nil {
				t.Errorf("workers=%d: task %d reported before it finished", n, i)
			}
			reported = append(reported, i)
		})
		if h := g.high.Load(); h > int64(n) {
			t.Errorf("workers=%d: %d tasks and cells ran at once", n, h)
		} else {
			t.Logf("workers=%d: at most %d tasks and cells at once", n, h)
		}
		for i, r := range reported {
			if r != i {
				t.Fatalf("workers=%d: reported %v, want every task in index order", n, reported)
			}
		}
		if len(reported) != len(needs) {
			t.Fatalf("workers=%d: reported %d tasks, want %d", n, len(reported), len(needs))
		}
		if want == nil {
			want = results
		} else if !reflect.DeepEqual(results, want) {
			t.Errorf("workers=%d: results differ from workers=1", n)
		}
		settle(t, base)
	}
}

// At one worker the tasks run one at a time in index order, a task
// starting only after the one it needs, and a Map inside a task runs its
// cells in index order.
func TestRunOneWorkerIsSequential(t *testing.T) {
	var started, cells []int
	tasks := []Task{
		{Needs: -1, Do: func(*Pool) { started = append(started, 0) }},
		{Needs: -1, Do: func(p *Pool) {
			started = append(started, 1)
			Map(p, 50, func(i int) int { cells = append(cells, i); return i })
		}},
		{Needs: 1, Do: func(*Pool) { started = append(started, 2) }},
		{Needs: -1, Do: func(*Pool) { started = append(started, 3) }},
	}
	Run(New(1), tasks, func(int) {})
	if !reflect.DeepEqual(started, []int{0, 1, 2, 3}) {
		t.Errorf("tasks started in order %v", started)
	}
	for i, c := range cells {
		if c != i {
			t.Fatalf("cells ran in order %v", cells)
		}
	}
	if len(cells) != 50 {
		t.Errorf("%d cells ran, want 50", len(cells))
	}
}

func TestRunNoTasks(t *testing.T) {
	Run(New(4), nil, func(i int) { t.Errorf("reported task %d of none", i) })
}

// A Map outside any Run holds its cells to Workers() at once, and so does
// a Map nested in the cells of one; both give the same results at any
// worker count and leave no goroutine behind. A cell yields while it
// counts, so that cells overlap even on fewer cores than workers.
func TestMapBudget(t *testing.T) {
	for _, in := range []struct {
		name string
		run  func(p *Pool, cell func(int) int) []int
	}{
		{"flat", func(p *Pool, cell func(int) int) []int { return Map(p, 300, cell) }},
		{"nested", func(p *Pool, cell func(int) int) []int {
			return Map(p, 30, func(c int) int {
				v := cell(c)
				for _, x := range Map(p, 20, func(d int) int { return cell(c*100 + d) }) {
					v += x
				}
				return v
			})
		}},
	} {
		var want []int
		for _, n := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
			base := runtime.NumGoroutine()
			var g gauge
			got := in.run(New(n), func(x int) int {
				g.enter()
				defer g.leave()
				runtime.Gosched()
				return spin(x)
			})
			if h := g.high.Load(); h > int64(n) {
				t.Errorf("%s, workers=%d: %d cells ran at once", in.name, n, h)
			} else {
				t.Logf("%s, workers=%d: at most %d cells at once", in.name, n, h)
			}
			if want == nil {
				want = got
			} else if !reflect.DeepEqual(got, want) {
				t.Errorf("%s, workers=%d: results differ from workers=1", in.name, n)
			}
			settle(t, base)
		}
	}
}
