package sched

import "time"

// Ticker repeatedly invokes a callback at a fixed virtual-time period
// until stopped. The zero Ticker is stopped; Start runs one in place, so
// a holder that keeps its Ticker by value and its callback as a stored
// func starts and stops it without allocating.
type Ticker struct {
	k       *Kernel
	period  time.Duration
	fn      func()
	timer   Timer
	stopped bool
}

// Every schedules fn to run every period, first firing one period from
// now. period must be positive.
func (k *Kernel) Every(period time.Duration, fn func()) *Ticker {
	t := new(Ticker)
	t.Start(k, period, fn)
	return t
}

// Start makes t run fn on k every period, first firing one period from
// now, after stopping whatever t ran before. period must be positive.
func (t *Ticker) Start(k *Kernel, period time.Duration, fn func()) {
	if period <= 0 {
		panic("sched: Every requires a positive period")
	}
	t.timer.Stop()
	*t = Ticker{k: k, period: period, fn: fn, timer: Timer{k: k}}
	t.arm()
}

// tick is every Ticker's event: a static func, with the ticker riding in
// the event's argument slot, so rearming allocates nothing.
func tick(v any) {
	t := v.(*Ticker)
	if t.stopped {
		return
	}
	t.fn()
	if !t.stopped {
		t.arm()
	}
}

// arm schedules the next tick. It stores only the handle's slot and
// generation: its kernel never changes, and leaving that pointer alone
// spares the collector's write barrier on every tick.
func (t *Ticker) arm() {
	tm := t.k.AfterArg(t.period, tick, t)
	t.timer.i, t.timer.gen = tm.i, tm.gen
}

// Stop cancels future ticks. It is safe to call from within the callback.
func (t *Ticker) Stop() {
	t.stopped = true
	t.timer.Stop()
}
