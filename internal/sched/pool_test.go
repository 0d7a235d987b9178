package sched

import (
	"testing"
	"time"
)

// The event pool recycles fired and cancelled events. These tests pin the
// safety property that makes pooling sound: a Timer handle is coupled to
// one scheduling, and once that scheduling fires or is cancelled the
// handle is permanently inert — even after the underlying event object is
// reused for an unrelated scheduling.

func TestPoolFiredTimerStaysInert(t *testing.T) {
	k := New(1)
	fired1 := false
	t1 := k.After(time.Second, func() { fired1 = true })
	k.Run()
	if !fired1 {
		t.Fatal("first event did not fire")
	}
	if t1.Pending() {
		t.Fatal("fired timer reports Pending")
	}

	// The next scheduling reuses the pooled event object.
	fired2 := false
	t2 := k.After(time.Second, func() { fired2 = true })
	if !t2.Pending() {
		t.Fatal("fresh timer on recycled event not pending")
	}
	// The stale handle must not cancel or observe the new scheduling.
	if t1.Stop() {
		t.Fatal("stale handle Stop() reported success")
	}
	if t1.Pending() {
		t.Fatal("stale handle reports the recycled event as its own")
	}
	if !t2.Pending() {
		t.Fatal("stale handle's Stop() killed the new scheduling")
	}
	k.Run()
	if !fired2 {
		t.Fatal("recycled event did not fire")
	}
}

func TestPoolCancelledTimerStaysInert(t *testing.T) {
	k := New(1)
	t1 := k.After(time.Second, func() { t.Fatal("cancelled event fired") })
	if !t1.Stop() {
		t.Fatal("Stop on pending timer failed")
	}
	// The stopped event went back to the pool at once; t2 reuses it.
	k.Run()

	fired := false
	t2 := k.After(time.Second, func() { fired = true })
	if t1.Stop() || t1.Pending() {
		t.Fatal("cancelled handle still live after recycle")
	}
	if !t2.Pending() {
		t.Fatal("new scheduling lost")
	}
	k.Run()
	if !fired {
		t.Fatal("second event did not fire")
	}
}

// TestPoolArmStopChurn drives the arm/stop cycle the modem's registration
// timers produce (T3510 armed, stopped on accept, T3511 armed, ...) and
// checks the pool keeps the heap and pending counts consistent.
func TestPoolArmStopChurn(t *testing.T) {
	k := New(1)
	fires := 0
	for i := 0; i < 10000; i++ {
		tm := k.After(time.Duration(i+1)*time.Millisecond, func() { fires++ })
		if i%2 == 0 {
			if !tm.Stop() {
				t.Fatalf("Stop failed at %d", i)
			}
			if tm.Pending() {
				t.Fatalf("stopped timer pending at %d", i)
			}
		}
	}
	if got := k.Pending(); got != 5000 {
		t.Fatalf("Pending = %d, want 5000", got)
	}
	k.Run()
	if fires != 5000 {
		t.Fatalf("fired %d events, want 5000", fires)
	}
}

// TestPoolReuseKeepsOrdering replays an interleaved schedule twice — once
// on a cold kernel, once on one whose pool is warm — and checks the
// execution order is identical: pooling must not perturb the (time, seq)
// order contract.
func TestPoolReuseKeepsOrdering(t *testing.T) {
	replay := func(k *Kernel) []int {
		var order []int
		for i := 0; i < 100; i++ {
			i := i
			k.After(time.Duration(100-i%7)*time.Millisecond, func() { order = append(order, i) })
		}
		k.Run()
		return order
	}
	cold := New(7)
	first := replay(cold)

	warm := New(7)
	for i := 0; i < 50; i++ {
		warm.After(time.Millisecond, func() {})
	}
	warm.Run() // fills the free list
	second := replay(warm)

	if len(first) != len(second) {
		t.Fatalf("length mismatch: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("order diverged at %d: %d vs %d", i, first[i], second[i])
		}
	}
}

// TestAtArgDeliversArgument covers the allocation-free argument slot.
func TestAtArgDeliversArgument(t *testing.T) {
	k := New(1)
	type payload struct{ n int }
	var got *payload
	fn := func(v any) { got = v.(*payload) }
	want := &payload{n: 42}
	k.AfterArg(time.Second, fn, want)
	k.Run()
	if got != want {
		t.Fatalf("AtArg delivered %v, want %v", got, want)
	}
}
