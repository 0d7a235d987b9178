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
// (half of all allocations in the experiment suite before pooling), so
// each kernel keeps its events in a slab addressed by int32 and recycles
// them through a free list linked by index: firing or cancelling an event
// returns its slot at once, and a later At/After reuses it. An event's
// keys (deadline, sequence number, generation, heap slot, free-list link)
// hold no pointer, and neither do the heap (see heap.go) nor the free
// list, so moving an event costs the garbage collector nothing: at
// -parallel 2, where the collector's mark phase has no idle core and the
// write barrier stays on, a pointer-linked queue paid it on every sift.
// The callbacks sit in a second slab under the same index; a freed slot
// keeps its callback until the slot is reused (or Restore clears it), and
// a scheduling stores a callback field only when it or the slot's old
// value is non-nil, so it writes only the fields its kind of event uses.
// What a free slot keeps alive is bounded by the slab's high-water mark.
//
// Single-threadedness means the pool needs no locks, and a generation
// counter on each event keeps stale Timer handles from ever touching a
// recycled slot. A cancelled event leaves the indexed heap at once; a
// fired one leaves its slot at the root while its callback runs, and the
// callback's first scheduling takes that slot (fire in place), so the
// common step — fire, then schedule the next — costs one sift instead of
// a pop and a push. For callers whose callbacks would otherwise capture a
// variable, AtArg/AfterArg carry one argument in the event's slot so the
// callback func can be built once and reused across arms.
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
	"slices"
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
	// free heads the free list of fired and cancelled slots awaiting reuse,
	// linked through event.next; -1 when empty.
	free int32
	// events is the slab: event i's keys. calls holds event i's callback
	// and argument, always as long as events. The slab's length is the
	// peak number of simultaneously pending events.
	events []event
	calls  []call
	// observer is the run's one observer, transitions what Observe found on
	// it for Announce, announced the transition count (see transition.go);
	// none of them is snapshot state.
	observer    any
	transitions TransitionObserver
	announced   uint64
	// src is the kernel's random stream, held by value so a snapshot can
	// copy it and Reseed is a few stores (see rng.go); rng is the one
	// *rand.Rand over it, built by New and handed out by Rand. src comes
	// last: it is 5 KB without a pointer, which the collector then never
	// has to look at.
	rng *rand.Rand
	src source
}

// event is a slot's scheduling record. It holds no pointer; gen persists
// across recycles.
type event struct {
	at   time.Duration
	seq  uint64
	gen  uint32
	idx  int32 // slot in the kernel's heap, -1 while not queued
	next int32 // free-list link, -1 at the end (stale while queued)
}

// call is what a slot's event runs: exactly one of fn or argFn is set
// while the event is queued. A free slot keeps the last ones until reuse.
type call struct {
	fn    func()
	argFn func(any)
	arg   any
}

// New returns a Kernel whose random source is seeded with seed: Rand()
// yields the stream of rand.New(rand.NewSource(seed)).
// Two kernels created with the same seed and fed the same schedule of
// events produce identical execution traces.
func New(seed int64) *Kernel {
	k := &Kernel{free: -1}
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
	k   *Kernel
	i   int32
	gen uint32
}

// queued returns the handle's event while the handle still refers to its
// original scheduling and that scheduling is pending, i.e. queued; nil
// otherwise.
func (t Timer) queued() *event {
	if t.k == nil || uint(t.i) >= uint(len(t.k.events)) {
		return nil
	}
	if ev := &t.k.events[t.i]; ev.gen == t.gen && ev.idx >= 0 {
		return ev
	}
	return nil
}

// Stop cancels the timer. It reports whether the timer was still pending.
// The event leaves the heap and its slot returns to the pool at once, so
// the queue holds live events only.
func (t Timer) Stop() bool {
	ev := t.queued()
	if ev == nil {
		return false
	}
	k := t.k
	k.queue.remove(k.events, int(ev.idx))
	k.recycle(t.i, ev)
	return true
}

// Pending reports whether the timer is scheduled and has neither fired nor
// been stopped.
func (t Timer) Pending() bool { return t.queued() != nil }

// alloc takes a slot from the free list, or grows the slab by one when the
// list is empty.
func (k *Kernel) alloc() (int32, *event) {
	i := k.free
	if i < 0 {
		i = int32(len(k.events))
		k.events = append(k.events, event{idx: -1, next: -1})
		k.calls = append(k.calls, call{})
	}
	ev := &k.events[i]
	k.free = ev.next
	return i, ev
}

// Warm grows the event pool to at least n free slots. A kernel that is
// snapshotted afterwards starts every restored run with them, where a
// pool snapshotted empty is filled again, slot by slot, in each run.
func (k *Kernel) Warm(n int) {
	for i := k.free; i >= 0; i = k.events[i].next {
		n--
	}
	if n > 0 {
		k.events = slices.Grow(k.events, n)
		k.calls = slices.Grow(k.calls, n)
	}
	for ; n > 0; n-- {
		k.events = append(k.events, event{idx: -1, next: k.free})
		k.calls = append(k.calls, call{})
		k.free = int32(len(k.events) - 1)
	}
}

// recycle returns slot i, whose event is ev, to the free list, bumping its
// generation so outstanding Timer handles become inert. The slot's
// callback stays until the slot is reused.
func (k *Kernel) recycle(i int32, ev *event) {
	ev.gen++
	ev.next = k.free
	k.free = i
}

func (k *Kernel) schedule(at time.Duration, fn func(), argFn func(any), arg any) Timer {
	if at < k.now {
		panic(fmt.Sprintf("sched: scheduling event at %v before now %v", at, k.now))
	}
	k.seq++
	i, ev := k.alloc()
	ev.at = at
	ev.seq = k.seq
	// Store a callback field only where it changes from or to non-nil: a
	// pointer store is what the collector's write barrier charges for.
	c := &k.calls[i]
	if fn != nil || c.fn != nil {
		c.fn = fn
	}
	if argFn != nil || c.argFn != nil {
		c.argFn = argFn
	}
	if arg != nil || c.arg != nil {
		c.arg = arg
	}
	if k.fired {
		k.fired = false
		k.queue.replace(k.events, i)
	} else {
		k.queue.push(k.events, i)
	}
	return Timer{k: k, i: i, gen: ev.gen}
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
// in the event's slot, so a caller that stores fn once (instead of closing
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
	ev := t.queued()
	if ev == nil || t.k != k {
		t.Stop()
		return k.After(d, fn)
	}
	if d < 0 {
		d = 0
	}
	k.seq++
	ev.at, ev.seq = k.now+d, k.seq
	ev.gen++
	c := &k.calls[t.i]
	c.fn = fn
	if c.argFn != nil {
		c.argFn, c.arg = nil, nil
	}
	k.queue.fix(k.events, int(ev.idx))
	return Timer{k: k, i: t.i, gen: ev.gen}
}

// Step executes the next pending event, advancing the clock to its
// deadline. It reports whether an event was executed.
func (k *Kernel) Step() bool {
	k.settle()
	if len(k.queue) == 0 {
		return false
	}
	i := k.queue[0]
	ev := &k.events[i]
	k.now = ev.at
	c := &k.calls[i]
	fn, argFn, arg := c.fn, c.argFn, c.arg
	k.recycle(i, ev) // safe: handles are inert once the generation bumps
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
		k.queue.remove(k.events, 0)
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
	for !k.stopped && len(k.queue) > 0 && k.events[k.queue[0]].at <= t {
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
