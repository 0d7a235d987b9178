package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// opCost is one micro-probe's reading.
type opCost struct {
	ns     float64 // median over batches of wall ns per operation
	allocs float64 // heap objects allocated per operation
}

// timeOp measures op the way testing.B would, without the testing
// package: it sizes a batch to about two milliseconds, times nine
// batches and reports the median ns per operation, then counts heap
// objects over one more batch. prep, when not nil, runs untimed before
// every batch with the batch size, for operations that consume prepared
// inputs (a sealed message can be opened once). op receives its index in
// the batch.
func timeOp(prep func(n int), op func(i int)) opCost {
	const (
		batchTarget = 2 * time.Millisecond
		batches     = 9
		maxBatch    = 1 << 20
	)
	batch := func(n int) time.Duration {
		if prep != nil {
			prep(n)
		}
		start := time.Now()
		for i := 0; i < n; i++ {
			op(i)
		}
		return time.Since(start)
	}
	n := 1
	for n < maxBatch {
		if d := batch(n); d >= batchTarget/2 {
			break
		}
		n *= 2
	}
	perOp := make([]float64, batches)
	for b := range perOp {
		perOp[b] = float64(batch(n).Nanoseconds()) / float64(n)
	}
	if prep != nil {
		prep(n)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		op(i)
	}
	runtime.ReadMemStats(&after)
	return opCost{ns: median(perOp), allocs: float64(after.Mallocs-before.Mallocs) / float64(n)}
}

// rtSample is a reading of the Go runtime's cumulative allocation and
// collector counters; the difference of two brackets a pass.
type rtSample struct {
	allocs, allocBytes, gcCycles uint64
	gcCPU, totalCPU              float64 // seconds
}

var rtNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	u := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	f := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	return rtSample{allocs: u(0), allocBytes: u(1), gcCycles: u(2), gcCPU: f(3), totalCPU: f(4)}
}

// rtDelta is what one pass cost the runtime.
type rtDelta struct {
	allocs, allocBytes, gcCycles float64
	gcShare                      float64 // collector CPU ÷ all CPU the process used
}

func (a rtSample) since(b rtSample) rtDelta {
	d := rtDelta{
		allocs:     float64(a.allocs - b.allocs),
		allocBytes: float64(a.allocBytes - b.allocBytes),
		gcCycles:   float64(a.gcCycles - b.gcCycles),
	}
	if total := a.totalCPU - b.totalCPU; total > 0 {
		d.gcShare = (a.gcCPU - b.gcCPU) / total
	}
	return d
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// budget hands out a wall-clock allowance: loops ask left() before
// starting another pass, so a workload measures for the seconds it was
// given whatever the speed of the box.
type budget struct{ deadline time.Time }

func newBudget(d time.Duration) budget { return budget{time.Now().Add(d)} }

func (b budget) left() bool { return time.Now().Before(b.deadline) }
