package sched

import (
	"testing"
	"time"
)

// BenchmarkEventChurn measures the schedule→fire cycle, the hottest path
// of the whole simulator (about half of all allocations before pooling).
// Steady-state it should not allocate: the fired event goes back to the
// free list and the next After reuses it.
func BenchmarkEventChurn(b *testing.B) {
	k := New(1)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.After(time.Millisecond, fn)
		k.Step()
	}
}

// BenchmarkEventChurnArg is the same cycle through AtArg, the form the
// modem's retry timers use to avoid per-arm closures.
func BenchmarkEventChurnArg(b *testing.B) {
	k := New(1)
	fn := func(any) {}
	arg := &struct{ n int }{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.AfterArg(time.Millisecond, fn, arg)
		k.Step()
	}
}

// BenchmarkArmStop measures the arm/cancel cycle of watchdog timers
// (T3510 armed on Registration Request, stopped on Accept; T3580 per
// session request; the app request timeout per packet). A stopped event
// goes straight back to the pool, so steady-state this is allocation-free
// too.
func BenchmarkArmStop(b *testing.B) {
	k := New(1)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := k.After(time.Second, fn)
		t.Stop()
	}
}

// BenchmarkDeepHeapChurn keeps 1024 pending events while cycling, so the
// heap sift cost at realistic queue depth is visible.
func BenchmarkDeepHeapChurn(b *testing.B) {
	k := New(1)
	fn := func() {}
	for i := 0; i < 1024; i++ {
		k.After(time.Duration(i+1)*time.Hour, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.After(time.Millisecond, fn)
		k.Step()
	}
}

// BenchmarkStepChain has the simulator's shape: a dozen far-future timers
// stay pending (a delivery cell's queue holds 8–15 events) while each
// fired callback schedules the next hop, and every fourth one also arms a
// request timeout and stops the previous one. Most Steps fire an event
// whose callback's first scheduling takes its slot.
func BenchmarkStepChain(b *testing.B) {
	k := New(1)
	fn := func() {}
	for i := 0; i < 12; i++ {
		k.After(time.Duration(i+1)*time.Hour, fn)
	}
	var timeout Timer
	n := 0
	var hop func()
	hop = func() {
		k.After(time.Microsecond, hop)
		if n++; n%4 == 0 {
			timeout.Stop()
			timeout = k.After(time.Second, fn)
		}
	}
	k.After(time.Microsecond, hop)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Step()
	}
}

// TestKernelHotPathAllocs is the allocation regression guard for the
// event kernel: the steady-state schedule→fire and arm→stop cycles, and a
// callback scheduling its successor into its own fired slot, must stay
// allocation-free, or the pooling has regressed.
func TestKernelHotPathAllocs(t *testing.T) {
	k := New(1)
	fn := func() {}
	// Warm the pool (first iteration allocates the event object itself).
	k.After(time.Millisecond, fn)
	k.Step()

	if avg := testing.AllocsPerRun(1000, func() {
		k.After(time.Millisecond, fn)
		k.Step()
	}); avg != 0 {
		t.Errorf("schedule+fire cycle allocates %v objects/op, want 0", avg)
	}

	if avg := testing.AllocsPerRun(1000, func() {
		tm := k.After(time.Second, fn)
		tm.Stop()
	}); avg != 0 {
		t.Errorf("arm+stop cycle allocates %v objects/op, want 0", avg)
	}

	argFn := func(any) {}
	arg := &struct{}{}
	if avg := testing.AllocsPerRun(1000, func() {
		k.AfterArg(time.Millisecond, argFn, arg)
		k.Step()
	}); avg != 0 {
		t.Errorf("AtArg schedule+fire cycle allocates %v objects/op, want 0", avg)
	}

	// Chains: each Step fires a callback that schedules the next link.
	var next func()
	next = func() { k.After(time.Millisecond, next) }
	k.After(time.Millisecond, next)
	k.Step()
	if avg := testing.AllocsPerRun(1000, func() { k.Step() }); avg != 0 {
		t.Errorf("callback scheduling its successor allocates %v objects/op, want 0", avg)
	}
	ka := New(1)
	var nextArg func(any)
	nextArg = func(a any) { ka.AfterArg(time.Millisecond, nextArg, a) }
	ka.AfterArg(time.Millisecond, nextArg, arg)
	ka.Step()
	if avg := testing.AllocsPerRun(1000, func() { ka.Step() }); avg != 0 {
		t.Errorf("AfterArg callback scheduling its successor allocates %v objects/op, want 0", avg)
	}
}

// BenchmarkReseed is what every cloned cell pays for its random stream:
// Reseed plus the first draw. The source fills register words as draws
// reach them, so this is two words, not math/rand's 607.
func BenchmarkReseed(b *testing.B) {
	k := New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Reseed(int64(i))
		sinkInt = k.Rand().Intn(1000)
	}
}

// BenchmarkNewRand is a derived stream's cost (workload compilation
// builds three per device): construction plus the first draw.
func BenchmarkNewRand(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkInt = NewRand(int64(i)).Intn(1000)
	}
}

var sinkInt int

// TestReseedAllocs pins the per-cell cost of the random stream: reseeding
// and drawing allocate nothing, and a kernel is two objects (the Kernel
// with the source inside it, and its *rand.Rand) where math/rand's
// separately allocated source made it three.
func TestReseedAllocs(t *testing.T) {
	k := New(1)
	seed := int64(0)
	if avg := testing.AllocsPerRun(1000, func() {
		seed++
		k.Reseed(seed)
		sinkInt = k.Rand().Intn(1000)
	}); avg != 0 {
		t.Errorf("Reseed + Intn allocates %v objects/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		seed++
		sinkKernel = New(seed)
	}); avg > 2 {
		t.Errorf("New allocates %v objects, want at most 2", avg)
	}
}

var sinkKernel *Kernel
