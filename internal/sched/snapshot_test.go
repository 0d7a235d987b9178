package sched

import (
	"reflect"
	"testing"
	"time"
)

// record runs the kernel for d and returns the fire log driven by the
// events currently scheduled.
func drain(k *Kernel, d time.Duration) {
	k.RunFor(d)
}

func TestSnapshotRestoreReplaysSchedule(t *testing.T) {
	k := New(1)
	var log []string
	k.After(10*time.Millisecond, func() { log = append(log, "a") })
	k.After(30*time.Millisecond, func() { log = append(log, "b") })
	k.After(20*time.Millisecond, func() { log = append(log, "c") })

	s := k.Snapshot()
	drain(k, 50*time.Millisecond)
	first := append([]string(nil), log...)
	if len(first) != 3 {
		t.Fatalf("first run fired %d events, want 3", len(first))
	}

	log = nil
	k.Restore(s)
	if k.Now() != 0 {
		t.Fatalf("Now() = %v after restore, want 0", k.Now())
	}
	if k.Pending() != 3 {
		t.Fatalf("Pending() = %d after restore, want 3", k.Pending())
	}
	drain(k, 50*time.Millisecond)
	if len(log) != 3 {
		t.Fatalf("replay fired %d events, want 3", len(log))
	}
	for i := range log {
		if log[i] != first[i] {
			t.Fatalf("replay order %v, want %v", log, first)
		}
	}
}

func TestSnapshotRestoreInFlightTimerHandles(t *testing.T) {
	k := New(1)
	fired := 0
	tm := k.After(25*time.Millisecond, func() { fired++ })

	s := k.Snapshot()

	// Timeline A: let it fire, then recycle the slot through another event.
	drain(k, 30*time.Millisecond)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if tm.Pending() {
		t.Fatal("handle still pending after fire")
	}
	k.After(time.Millisecond, func() {}) // reuses the pooled event, gen bumped
	drain(k, 5*time.Millisecond)

	// Restore: the ORIGINAL handle must be live again (same event, rolled-
	// back generation) and must fire exactly once more.
	k.Restore(s)
	if !tm.Pending() {
		t.Fatal("handle not pending after restore (generation not rolled back)")
	}
	drain(k, 30*time.Millisecond)
	if fired != 2 {
		t.Fatalf("fired = %d after replay, want 2", fired)
	}

	// Timeline B: restore again and Stop through the handle instead.
	k.Restore(s)
	if !tm.Stop() {
		t.Fatal("Stop() on restored handle reported not pending")
	}
	drain(k, 30*time.Millisecond)
	if fired != 2 {
		t.Fatalf("fired = %d after stopped replay, want 2 (no extra fire)", fired)
	}
}

func TestSnapshotDropsCancelledEvents(t *testing.T) {
	k := New(1)
	fired := false
	tm := k.After(10*time.Millisecond, func() { fired = true })
	k.After(20*time.Millisecond, func() {})
	tm.Stop()

	s := k.Snapshot()
	k.Restore(s)
	if k.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1 (cancelled event must not be restored)", k.Pending())
	}
	if tm.Pending() {
		t.Fatal("cancelled handle resurrected by restore")
	}
	drain(k, 30*time.Millisecond)
	if fired {
		t.Fatal("cancelled event fired after restore")
	}
}

func TestSnapshotRestoresFreeListOrder(t *testing.T) {
	k := New(1)
	// Fire a few events so the free list holds recycled slots in a known
	// order, with one still queued.
	k.After(1*time.Millisecond, func() {})
	k.After(2*time.Millisecond, func() {})
	k.After(3*time.Millisecond, func() {})
	drain(k, 5*time.Millisecond)
	k.After(100*time.Millisecond, func() {})

	s := k.Snapshot()

	// Record which pooled slots alloc hands out, in order (only as many as
	// the pool holds — once the free list is empty alloc grows the slab,
	// whose next slot is the same in every timeline anyway).
	pooled := 0
	for i := k.free; i >= 0; i = k.events[i].next {
		pooled++
	}
	if pooled == 0 {
		t.Fatal("free list empty; test needs recycled events")
	}
	allocOrder := func() []int32 {
		var got []int32
		for i := 0; i < pooled; i++ {
			i, _ := k.alloc()
			got = append(got, i)
		}
		// Restore rebuilds the pool, so no need to hand these back.
		return got
	}
	first := allocOrder()

	k.Restore(s)
	second := allocOrder()
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("alloc order diverged at %d after restore", i)
		}
	}
	k.Restore(s)
	if k.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", k.Pending())
	}
}

func TestSnapshotRestoreAfterPostSnapshotGrowth(t *testing.T) {
	k := New(1)
	k.After(10*time.Millisecond, func() {})
	s := k.Snapshot()

	// Grow the schedule well past the snapshot, then rewind.
	for i := 0; i < 64; i++ {
		d := time.Duration(i+1) * time.Millisecond
		k.After(d, func() {})
	}
	drain(k, 200*time.Millisecond)
	if k.Pending() != 0 {
		t.Fatalf("Pending() = %d before restore, want 0", k.Pending())
	}

	k.Restore(s)
	if k.Pending() != 1 || k.Now() != 0 {
		t.Fatalf("after restore: Pending()=%d Now()=%v, want 1, 0", k.Pending(), k.Now())
	}
	ran := 0
	k.After(5*time.Millisecond, func() { ran++ })
	drain(k, 20*time.Millisecond)
	if ran != 1 || k.Pending() != 0 {
		t.Fatalf("post-restore schedule broken: ran=%d Pending()=%d", ran, k.Pending())
	}
}

// TestRestoreKeepsSlabBounded: a prototype's kernel is restored once per
// cell, and every cell schedules past the snapshot's events. Restore cuts
// the slots made after the snapshot, so 10 000 cycles leave the slab where
// the first one took it.
func TestRestoreKeepsSlabBounded(t *testing.T) {
	k := New(1)
	noop := func() {}
	argFn := func(any) {}
	for i := 0; i < 4; i++ {
		k.After(time.Duration(i+1)*time.Second, noop)
	}
	s := k.Snapshot()
	var high, highCap, callsCap int
	for cycle := 0; cycle < 10000; cycle++ {
		for j := 0; j < 24; j++ {
			k.AfterArg(time.Duration(j%5)*time.Millisecond, argFn, &j)
		}
		k.After(time.Hour, noop).Stop()
		k.RunFor(3 * time.Millisecond)
		if cycle == 0 {
			high, highCap, callsCap = len(k.events), cap(k.events), cap(k.calls)
		}
		if len(k.events) != high || cap(k.events) != highCap || cap(k.calls) != callsCap {
			t.Fatalf("cycle %d: slab %d long (caps %d, %d), first cycle's %d (caps %d, %d)",
				cycle, len(k.events), cap(k.events), cap(k.calls), high, highCap, callsCap)
		}
		k.Restore(s)
		if len(k.events) != 4 || len(k.calls) != 4 || k.Pending() != 4 {
			t.Fatalf("cycle %d: restored slab %d long with %d callbacks and %d pending, want 4", cycle, len(k.events), len(k.calls), k.Pending())
		}
	}
}

// TestRestoreDropsFreeCallbacks: a freed slot keeps its callback until it
// is reused, but after Restore no slot the snapshot does not queue — freed
// before the snapshot, after it, or cut from the slab — holds a callback
// or an argument, and the queued ones hold theirs.
func TestRestoreDropsFreeCallbacks(t *testing.T) {
	k := New(1)
	type payload struct{ n int }
	var got []int
	argFn := func(a any) { got = append(got, a.(*payload).n) }
	k.After(time.Second, func() { got = append(got, -1) })
	k.AfterArg(2*time.Second, argFn, &payload{1})
	k.AfterArg(time.Millisecond, argFn, &payload{2})
	k.RunFor(time.Millisecond)
	s := k.Snapshot()

	for i := 0; i < 16; i++ {
		k.AfterArg(time.Duration(i)*time.Millisecond, argFn, &payload{3})
	}
	k.After(time.Hour, func() {}).Stop()
	k.RunFor(time.Minute)
	kept := 0
	for _, c := range k.calls {
		if c.fn != nil || c.argFn != nil || c.arg != nil {
			kept++
		}
	}
	if kept == 0 {
		t.Fatal("no freed slot kept its callback; the test exercises nothing")
	}

	k.Restore(s)
	for i, c := range k.calls[:cap(k.calls)] {
		queued := i < len(k.events) && k.events[i].idx >= 0
		switch {
		case queued && c.fn == nil && c.argFn == nil:
			t.Errorf("queued slot %d lost its callback", i)
		case !queued && (c.fn != nil || c.argFn != nil || c.arg != nil):
			t.Errorf("slot %d is not queued but holds a callback or an argument", i)
		}
	}
	got = nil
	k.Run()
	if len(got) != 2 || got[0] != -1 || got[1] != 1 {
		t.Fatalf("restored queue fired %v, want [-1 1]", got)
	}
}

func TestReseedResetsStream(t *testing.T) {
	k := New(7)
	a := []int64{k.Rand().Int63(), k.Rand().Int63()}
	k.Reseed(7)
	b := []int64{k.Rand().Int63(), k.Rand().Int63()}
	if a[0] != b[0] || a[1] != b[1] {
		t.Fatalf("Reseed did not reset the stream: %v vs %v", a, b)
	}
	k.Reseed(8)
	if c := k.Rand().Int63(); c == a[0] {
		t.Fatal("different seed produced the same first draw")
	}
}

func TestSnapshotRestoreWithArgEvents(t *testing.T) {
	k := New(1)
	type payload struct{ n int }
	p := &payload{n: 42}
	var got []int
	fn := func(a any) { got = append(got, a.(*payload).n) }
	k.AfterArg(10*time.Millisecond, fn, p)

	s := k.Snapshot()
	drain(k, 20*time.Millisecond)
	p.n = 99 // consumer mutated the pooled payload after firing

	// The kernel replays the same pointer; payload CONTENT restoration is
	// the snap engine's job (via SnapshotRoots), exercised in the
	// integration tests. Here the pointer identity must survive.
	k.Restore(s)
	drain(k, 20*time.Millisecond)
	if len(got) != 2 || got[1] != 99 {
		t.Fatalf("got = %v, want second fire to see the same payload pointer", got)
	}

	// SnapshotRoots must expose the queued arg.
	k.Restore(s)
	seen := 0
	k.SnapshotRoots(func(root any) {
		if _, ok := root.(*payload); ok {
			seen++
		}
	})
	if seen != 1 {
		t.Fatalf("SnapshotRoots exposed %d payload args, want 1", seen)
	}
}

// TestKernelSnapshotRestoresRandomStream: a bare kernel's snapshot owns
// its random stream — no snap engine, no Reseed — including the bytes
// Rand.Read leaves buffered in the *rand.Rand between calls.
func TestKernelSnapshotRestoresRandomStream(t *testing.T) {
	draw := func(k *Kernel) (out []int64) {
		r := k.Rand()
		for i := 0; i < 1000; i++ {
			var b [5]byte
			r.Read(b[:])
			out = append(out, r.Int63(), int64(r.Intn(1000)), int64(b[0])<<8|int64(b[4]))
		}
		return out
	}
	for _, reseed := range []bool{false, true} {
		k := New(7)
		var b [3]byte
		k.Rand().Read(b[:]) // leaves four bytes of this draw buffered
		k.Rand().Int63()
		s := k.Snapshot()
		want := draw(k)
		if reseed {
			k.Reseed(8)
			k.Rand().Int63()
		}
		k.Restore(s)
		if got := draw(k); !reflect.DeepEqual(got, want) {
			t.Errorf("reseed between=%v: draws after Restore differ from draws after Snapshot", reseed)
		}
	}
}
