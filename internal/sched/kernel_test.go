package sched

import (
	"testing"
	"testing/quick"
	"time"
)

func TestEventOrdering(t *testing.T) {
	k := New(1)
	var got []int
	k.After(30*time.Millisecond, func() { got = append(got, 3) })
	k.After(10*time.Millisecond, func() { got = append(got, 1) })
	k.After(20*time.Millisecond, func() { got = append(got, 2) })
	k.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if k.Now() != 30*time.Millisecond {
		t.Fatalf("Now = %v, want 30ms", k.Now())
	}
}

func TestSameDeadlineFIFO(t *testing.T) {
	k := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.After(time.Second, func() { got = append(got, i) })
	}
	k.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-deadline events ran out of insertion order: %v", got)
		}
	}
}

func TestTimerStop(t *testing.T) {
	k := New(1)
	fired := false
	tm := k.After(time.Second, func() { fired = true })
	if !tm.Pending() {
		t.Fatal("timer should be pending")
	}
	if !tm.Stop() {
		t.Fatal("Stop should report true for a pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop should report false")
	}
	k.Run()
	if fired {
		t.Fatal("stopped timer fired")
	}
	if tm.Pending() {
		t.Fatal("stopped timer still pending")
	}
}

func TestNestedScheduling(t *testing.T) {
	k := New(1)
	var at []time.Duration
	k.After(time.Second, func() {
		at = append(at, k.Now())
		k.After(time.Second, func() { at = append(at, k.Now()) })
	})
	k.Run()
	if len(at) != 2 || at[0] != time.Second || at[1] != 2*time.Second {
		t.Fatalf("nested scheduling times = %v", at)
	}
}

func TestRunUntil(t *testing.T) {
	k := New(1)
	var fired []time.Duration
	for _, d := range []time.Duration{1, 2, 3, 4, 5} {
		d := d * time.Second
		k.After(d, func() { fired = append(fired, d) })
	}
	k.RunUntil(3 * time.Second)
	if len(fired) != 3 {
		t.Fatalf("fired %d events, want 3", len(fired))
	}
	if k.Now() != 3*time.Second {
		t.Fatalf("Now = %v, want 3s", k.Now())
	}
	k.RunFor(10 * time.Second)
	if len(fired) != 5 {
		t.Fatalf("fired %d events after RunFor, want 5", len(fired))
	}
	if k.Now() != 13*time.Second {
		t.Fatalf("Now = %v, want 13s", k.Now())
	}
}

func TestRunUntilAdvancesClockWithEmptyQueue(t *testing.T) {
	k := New(1)
	k.RunUntil(time.Minute)
	if k.Now() != time.Minute {
		t.Fatalf("Now = %v, want 1m", k.Now())
	}
}

func TestStopHaltsRun(t *testing.T) {
	k := New(1)
	count := 0
	for i := 0; i < 10; i++ {
		k.After(time.Duration(i)*time.Second, func() {
			count++
			if count == 3 {
				k.Stop()
			}
		})
	}
	k.Run()
	if count != 3 {
		t.Fatalf("ran %d events before Stop, want 3", count)
	}
	k.Run() // resumes
	if count != 10 {
		t.Fatalf("ran %d events total, want 10", count)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	k := New(1)
	k.After(time.Second, func() {})
	k.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("At in the past did not panic")
		}
	}()
	k.At(0, func() {})
}

func TestNegativeAfterClampsToNow(t *testing.T) {
	k := New(1)
	k.After(time.Second, func() {
		fired := false
		k.After(-time.Hour, func() { fired = true })
		k.After(0, func() {
			if !fired {
				t.Error("negative After did not run at current time")
			}
		})
	})
	k.Run()
}

func TestTicker(t *testing.T) {
	k := New(1)
	ticks := 0
	tk := k.Every(time.Second, func() {
		ticks++
		if ticks == 5 {
			k.Stop()
		}
	})
	k.Run()
	if ticks != 5 {
		t.Fatalf("ticks = %d, want 5", ticks)
	}
	if k.Now() != 5*time.Second {
		t.Fatalf("Now = %v, want 5s", k.Now())
	}
	tk.Stop()
	k.Run()
	if ticks != 5 {
		t.Fatalf("ticker fired after Stop: %d", ticks)
	}
}

func TestTickerStopInsideCallback(t *testing.T) {
	k := New(1)
	ticks := 0
	var tk *Ticker
	tk = k.Every(time.Second, func() {
		ticks++
		if ticks == 2 {
			tk.Stop()
		}
	})
	k.Run()
	if ticks != 2 {
		t.Fatalf("ticks = %d, want 2", ticks)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []int64 {
		k := New(42)
		var out []int64
		for i := 0; i < 100; i++ {
			k.After(time.Duration(k.Rand().Intn(1000))*time.Millisecond, func() {
				out = append(out, int64(k.Now()))
			})
		}
		k.Run()
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("different event counts across identical runs")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestPendingCount(t *testing.T) {
	k := New(1)
	t1 := k.After(time.Second, func() {})
	k.After(2*time.Second, func() {})
	if k.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", k.Pending())
	}
	t1.Stop()
	if k.Pending() != 1 {
		t.Fatalf("Pending = %d after Stop, want 1", k.Pending())
	}
}

// Property: for any set of non-negative delays, events fire in
// non-decreasing time order and the clock ends at the max delay.
func TestPropertyMonotonicClock(t *testing.T) {
	f := func(delays []uint16) bool {
		k := New(7)
		var last time.Duration = -1
		ok := true
		var max time.Duration
		for _, d := range delays {
			dd := time.Duration(d) * time.Millisecond
			if dd > max {
				max = dd
			}
			k.After(dd, func() {
				if k.Now() < last {
					ok = false
				}
				last = k.Now()
			})
		}
		k.Run()
		return ok && (len(delays) == 0 || k.Now() == max)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Regression: a cancelled timer at the top of the heap must not let
// RunUntil execute a later event beyond its deadline.
func TestRunUntilSkipsCancelledWithoutOverrunning(t *testing.T) {
	k := New(1)
	early := k.After(time.Second, func() {})
	fired := false
	k.After(time.Hour, func() { fired = true })
	early.Stop()
	k.RunUntil(time.Minute)
	if fired {
		t.Fatal("RunUntil executed an event beyond its deadline")
	}
	if k.Now() != time.Minute {
		t.Fatalf("Now = %v", k.Now())
	}
	k.RunUntil(2 * time.Hour)
	if !fired {
		t.Fatal("event not executed after deadline passed")
	}
}

// TestPendingConstantTime pins the queue length as the pending count:
// it must stay correct through stops, double stops and event execution.
func TestPendingConstantTime(t *testing.T) {
	k := New(1)
	var tms []Timer
	for i := 0; i < 10; i++ {
		tms = append(tms, k.After(time.Duration(i+1)*time.Second, func() {}))
	}
	if k.Pending() != 10 {
		t.Fatalf("Pending() = %d, want 10", k.Pending())
	}
	tms[0].Stop()
	tms[1].Stop()
	if k.Pending() != 8 {
		t.Fatalf("Pending() = %d after 2 stops, want 8", k.Pending())
	}
	tms[0].Stop() // double-stop is a no-op
	if k.Pending() != 8 {
		t.Fatalf("Pending() = %d after double stop, want 8", k.Pending())
	}
	k.RunFor(4 * time.Second)
	if k.Pending() != 6 {
		t.Fatalf("Pending() = %d after running 2 live events, want 6", k.Pending())
	}
	k.Run()
	if k.Pending() != 0 {
		t.Fatalf("Pending() = %d after drain, want 0", k.Pending())
	}
}

// TestRunUntilAfterCancelKeepsCounter runs the clock past the deadlines
// of two stopped timers with one live event beyond the horizon.
func TestRunUntilAfterCancelKeepsCounter(t *testing.T) {
	k := New(1)
	a := k.After(time.Second, func() {})
	b := k.After(2*time.Second, func() {})
	k.After(time.Hour, func() {})
	a.Stop()
	b.Stop()
	k.RunUntil(10 * time.Second)
	if k.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", k.Pending())
	}
	if k.Now() != 10*time.Second {
		t.Fatalf("Now() = %v, want 10s", k.Now())
	}
}
