// Package sched implements a deterministic discrete-event simulation
// kernel. All SEED substrates (modem, SIM, core network, Android stack,
// traffic emulators) run on a Kernel's virtual clock, so experiments that
// span minutes of protocol time (e.g. a 476 s data-plane disruption or a
// 12-minute T3502 backoff) execute in microseconds of wall time and are
// bit-for-bit reproducible for a given seed.
//
// The kernel is single-threaded by design: events run one at a time in
// (time, insertion-order) sequence, so components never need locks and a
// run with the same seed always produces the same trace.
//
// The event kernel is the hottest allocation site of the whole simulator
// (half of all allocations in the experiment suite before pooling), so it
// recycles event objects through a free list: firing or cancelling an
// event returns it to the pool at once, and a later At/After reuses it.
// Single-threadedness means the pool needs no locks, and a generation
// counter on each event keeps stale Timer handles from ever touching a
// recycled slot. A cancelled event leaves the indexed heap (see heap.go)
// at once; a fired one leaves its slot at the root while its callback
// runs, and the callback's first scheduling takes that slot (fire in
// place), so the common step — fire, then schedule the next — costs one
// sift instead of a pop and a push. For callers whose callbacks would
// otherwise capture a variable, AtArg/AfterArg carry one argument in the
// pooled event itself so the callback func can be built once and reused
// across arms.
//
// The package is also the one place seeded random streams come from: a
// kernel's Rand(), and NewRand for derived streams (seeds from DeriveSeed/
// DeriveSeedN). Both run over the source in rng.go, which yields the
// stream of rand.NewSource(seed) value for value but seeds in O(1), so
// Reseed — once per simulated cell — costs a few stores instead of a
// 607-word register fill, and a kernel snapshot carries the stream with it.
package sched

import (
	"fmt"
	"math/rand"
	"time"
)

// Kernel is a discrete-event scheduler with a virtual clock.
// The zero value is not usable; call New.
type Kernel struct {
	now     time.Duration
	queue   eventHeap
	seq     uint64
	stopped bool
	// fired marks queue[0] as the slot of the event Step is running, already
	// recycled: the callback's first schedule takes the slot, and settle
	// removes it if none does.
	fired bool
	// observer is the run's one observer, transitions what Observe found on
	// it for Announce, announced the transition count (see transition.go);
	// none of them is snapshot state.
	observer    any
	transitions TransitionObserver
	announced   uint64
	// free is the event pool: a singly-linked list of fired/cancelled
	// events awaiting reuse. Its length is bounded by the peak number of
	// simultaneously pending events.
	free *event
	// src is the kernel's random stream, held by value so a snapshot can
	// copy it and Reseed is a few stores (see rng.go); rng is the one
	// *rand.Rand over it, built by New and handed out by Rand. src comes
	// last: it is 5 KB without a pointer, which the collector then never
	// has to look at.
	rng *rand.Rand
	src source
}

// New returns a Kernel whose random source is seeded with seed: Rand()
// yields the stream of rand.New(rand.NewSource(seed)).
// Two kernels created with the same seed and fed the same schedule of
// events produce identical execution traces.
func New(seed int64) *Kernel {
	k := new(Kernel)
	k.src.Seed(seed)
	k.rng = rand.New(&k.src)
	return k
}

// Now returns the current virtual time, measured from kernel start.
func (k *Kernel) Now() time.Duration { return k.now }

// Rand returns the kernel's deterministic random source.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// Timer is a handle to a scheduled event. Stop cancels it; a stopped or
// fired timer is inert. Timer is a small value: copy it freely. The zero
// Timer is valid and inert.
//
// A Timer stays coupled to the one scheduling it was returned for: the
// generation counter makes a handle inert the moment its event is
// recycled, so holding a Timer past its firing can never affect a later
// event that happens to reuse the same slot.
type Timer struct {
	ev  *event
	gen uint32
}

// live reports whether the handle still refers to its original scheduling
// and that scheduling is pending, i.e. queued.
func (t Timer) live() bool {
	return t.ev != nil && t.ev.gen == t.gen && t.ev.idx >= 0
}

// Stop cancels the timer. It reports whether the timer was still pending.
// The event leaves the heap and returns to the pool at once, so its
// callback and argument are released and the queue holds live events only.
func (t Timer) Stop() bool {
	if !t.live() {
		return false
	}
	k := t.ev.k
	k.recycle(k.queue.remove(int(t.ev.idx)))
	return true
}

// Pending reports whether the timer is scheduled and has neither fired nor
// been stopped.
func (t Timer) Pending() bool { return t.live() }

// alloc takes an event from the free list, or heap-allocates the pool's
// next event when the list is empty.
func (k *Kernel) alloc() *event {
	ev := k.free
	if ev == nil {
		return &event{k: k, idx: -1}
	}
	k.free = ev.next
	ev.next = nil
	return ev
}

// Warm grows the event pool to at least n free events. A kernel that is
// snapshotted afterwards starts every restored run with them, where a
// pool snapshotted empty is filled again, event by event, in each run.
func (k *Kernel) Warm(n int) {
	for ev := k.free; ev != nil; ev = ev.next {
		n--
	}
	for ; n > 0; n-- {
		k.free = &event{k: k, idx: -1, next: k.free}
	}
}

// recycle returns a fired or cancelled event, already out of the heap, to
// the free list, bumping its generation so outstanding Timer handles
// become inert.
func (k *Kernel) recycle(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.argFn = nil
	ev.arg = nil
	ev.next = k.free
	k.free = ev
}

func (k *Kernel) schedule(at time.Duration, fn func(), argFn func(any), arg any) Timer {
	if at < k.now {
		panic(fmt.Sprintf("sched: scheduling event at %v before now %v", at, k.now))
	}
	k.seq++
	ev := k.alloc()
	ev.at = at
	ev.seq = k.seq
	ev.fn = fn
	ev.argFn = argFn
	ev.arg = arg
	if k.fired {
		k.fired = false
		k.queue.replace(ev)
	} else {
		k.queue.push(ev)
	}
	return Timer{ev: ev, gen: ev.gen}
}

// At schedules fn to run at absolute virtual time at. Scheduling in the
// past (at < Now) panics: it indicates a causality bug in the caller.
func (k *Kernel) At(at time.Duration, fn func()) Timer {
	return k.schedule(at, fn, nil, nil)
}

// After schedules fn to run d after the current virtual time.
// Negative d is treated as zero.
func (k *Kernel) After(d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return k.At(k.now+d, fn)
}

// AtArg schedules fn(arg) at absolute virtual time at. The argument rides
// in the pooled event, so a caller that stores fn once (instead of closing
// over arg at every call site) schedules without any allocation; passing a
// pointer-shaped arg avoids even the interface boxing.
func (k *Kernel) AtArg(at time.Duration, fn func(arg any), arg any) Timer {
	return k.schedule(at, nil, fn, arg)
}

// AfterArg schedules fn(arg) to run d after the current virtual time.
// Negative d is treated as zero.
func (k *Kernel) AfterArg(d time.Duration, fn func(arg any), arg any) Timer {
	if d < 0 {
		d = 0
	}
	return k.AtArg(k.now+d, fn, arg)
}

// Rearm moves a pending timer to fire fn d from now and returns its new
// handle; every copy of t goes inert, as after Stop. It is t.Stop() followed
// by After(d, fn) at the cost of one sift: the event takes the deadline and
// the fresh sequence number the new scheduling would have been given, so
// the firing order, and with it every trace, is that of the pair. A timer
// that is not pending is simply scheduled.
func (k *Kernel) Rearm(t Timer, d time.Duration, fn func()) Timer {
	if !t.live() || t.ev.k != k {
		t.Stop()
		return k.After(d, fn)
	}
	if d < 0 {
		d = 0
	}
	ev := t.ev
	k.seq++
	ev.at, ev.seq = k.now+d, k.seq
	ev.fn, ev.argFn, ev.arg = fn, nil, nil
	ev.gen++
	k.queue.fix(int(ev.idx))
	return Timer{ev: ev, gen: ev.gen}
}

// Step executes the next pending event, advancing the clock to its
// deadline. It reports whether an event was executed.
func (k *Kernel) Step() bool {
	k.settle()
	if len(k.queue) == 0 {
		return false
	}
	ev := k.queue[0]
	k.now = ev.at
	fn, argFn, arg := ev.fn, ev.argFn, ev.arg
	k.recycle(ev) // safe: handles are inert once the generation bumps
	// The slot stays at the root, still keyed as the earliest event, so
	// nothing the callback does sifts past it.
	k.fired = true
	if fn != nil {
		fn()
	} else {
		argFn(arg)
	}
	k.settle()
	return true
}

// settle removes the root slot of a fired event that no scheduling took.
// Every entry point that reads the queue calls it first.
func (k *Kernel) settle() {
	if k.fired {
		k.fired = false
		k.queue.remove(0)
	}
}

// Run executes events until the queue is empty or Stop is called.
func (k *Kernel) Run() {
	k.stopped = false
	for !k.stopped && k.Step() {
	}
}

// RunUntil executes events with deadlines <= t, then advances the clock to
// exactly t. Events scheduled beyond t remain queued.
func (k *Kernel) RunUntil(t time.Duration) {
	k.stopped = false
	k.settle()
	for !k.stopped && len(k.queue) > 0 && k.queue[0].at <= t {
		k.Step()
	}
	if t > k.now {
		k.now = t
	}
}

// RunFor executes events for d of virtual time from Now.
func (k *Kernel) RunFor(d time.Duration) { k.RunUntil(k.now + d) }

// Stop halts Run/RunUntil after the current event returns. Pending events
// stay queued and a subsequent Run resumes them.
func (k *Kernel) Stop() { k.stopped = true }

// Pending returns the number of queued events: in O(1), or one sift when
// called from a callback that has scheduled nothing yet.
func (k *Kernel) Pending() int {
	k.settle()
	return len(k.queue)
}

// Scheduled returns how many events have been scheduled since the kernel
// started (the sequence counter that breaks ties between equal deadlines):
// two runs that scheduled the same events read the same value.
func (k *Kernel) Scheduled() uint64 { return k.seq }

// event is a pooled scheduling record. Exactly one of fn or argFn is set
// while the event is queued; k and gen persist across recycles.
type event struct {
	at    time.Duration
	seq   uint64
	fn    func()
	argFn func(any)
	arg   any
	k     *Kernel
	next  *event // free-list link (nil while queued)
	gen   uint32
	idx   int32 // slot in the kernel's heap, -1 while not queued
}
