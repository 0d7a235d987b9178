package sched

import "time"

// Ticker repeatedly invokes a callback at a fixed virtual-time period
// until stopped.
type Ticker struct {
	k       *Kernel
	period  time.Duration
	fn      func()
	tick    func() // built once; rearming allocates nothing
	timer   Timer
	stopped bool
}

// Every schedules fn to run every period, first firing one period from
// now. period must be positive.
func (k *Kernel) Every(period time.Duration, fn func()) *Ticker {
	if period <= 0 {
		panic("sched: Every requires a positive period")
	}
	t := &Ticker{k: k, period: period, fn: fn, timer: Timer{k: k}}
	t.tick = func() {
		if t.stopped {
			return
		}
		t.fn()
		if !t.stopped {
			t.arm()
		}
	}
	t.arm()
	return t
}

// arm schedules the next tick. It stores only the handle's slot and
// generation: its kernel never changes, and leaving that pointer alone
// spares the collector's write barrier on every tick.
func (t *Ticker) arm() {
	tm := t.k.After(t.period, t.tick)
	t.timer.i, t.timer.gen = tm.i, tm.gen
}

// Stop cancels future ticks. It is safe to call from within the callback.
func (t *Ticker) Stop() {
	t.stopped = true
	t.timer.Stop()
}
