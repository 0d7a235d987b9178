package sched

import (
	"math/rand"
	"testing"
	"time"
)

// The kernel's promise is that events fire in (deadline, insertion) order
// whatever else happens to the queue in between, callbacks included.
// heapProgram interprets a byte string as a sequence of At / AfterArg /
// Timer.Stop / RunUntil / Step / Rearm / Snapshot / Restore / Pending
// operations against a kernel and, in lockstep, against a model that is
// nothing but a list of events and their states: every event that fires
// must be the model's earliest pending one, by deadline and then by
// insertion, at the clock the model expects. Deadlines come from a
// 16-value range, so equal deadlines — where only the sequence number
// orders — are the common case.
//
// An event scheduled by the top-level program may carry a body: the up to
// three operations that follow its own in the program, which its callback
// runs when it fires (nested bodies run to a bounded depth). So callbacks
// schedule, stop (the root a first scheduling filled, inner and last
// slots), re-arm their own timer and others, drain, snapshot and restore,
// exactly as the top level does. The model drops the fired event before
// its callback runs.
//
// After every operation the heap's index must be exact:
// events[queue[i]].idx == i over the queue's live events, which are the
// model's pending events and nothing else. Inside a callback that has scheduled nothing yet, slot 0
// is the fired event's; outside callbacks it never is, and a callback's
// first scheduling must take it.
type heapProgram struct {
	t *testing.T
	k *Kernel
	// stopAfter makes the Rearm operation the Stop + After pair it stands
	// for (TestRearmEqualsStopAfter runs a program both ways).
	stopAfter bool

	prog []byte // the top-level program; bodies are slices of it
	pc   int    // the top-level operation being run

	// One entry per scheduling, in insertion order (index = event id).
	at      []time.Duration
	state   []evState
	handles []Timer
	body    [][]byte
	lo      int           // every id below lo is fired or cancelled
	now     time.Duration // the clock the kernel must show
	log     []int         // every id fired so far, in order

	firing  int // the id whose body is running, -1 at the top level
	depth   int // bodies running, nested
	firesAt [maxBodyDepth + 1]int

	// Heap slots Stop and Rearm found their event in: root, inner, last;
	// at the top level and inside callbacks.
	slotHits, cbSlotHits [3]int
	// Schedules that took a fired event's slot.
	intoRoot int

	logArgFn func(any) // arg: *int, the event id
	saved    *heapSaved
}

// maxBodyDepth bounds callbacks running bodies inside callbacks.
const maxBodyDepth = 3

type evState uint8

const (
	evPending evState = iota
	evFired
	evCancelled
)

type heapSaved struct {
	ks    *KernelSnapshot
	n, lo int
	now   time.Duration
	state []evState
}

func newHeapProgram(t *testing.T) *heapProgram {
	p := &heapProgram{t: t, k: New(1), firing: -1}
	p.logArgFn = func(v any) { p.fire(*v.(*int)) }
	return p
}

// fire is every event's callback: the event must be the model's next, at
// the model's clock, and then runs its body.
func (p *heapProgram) fire(id int) {
	p.t.Helper()
	if want := p.next(); id != want {
		p.t.Fatalf("event %d (at %v) fired, model expects %d", id, p.at[id], want)
	}
	if p.k.Now() != p.at[id] {
		p.t.Fatalf("event %d fired at %v, its deadline is %v", id, p.k.Now(), p.at[id])
	}
	p.state[id] = evFired
	p.now = p.at[id]
	p.log = append(p.log, id)
	p.firesAt[p.depth]++
	// A body runs once: a Restore does not bring it back, or a body that
	// restores a snapshot taken before its event fired, then snapshots
	// again, would fire forever.
	body := p.body[id]
	if body == nil || p.depth == maxBodyDepth {
		return
	}
	p.body[id] = nil
	outer := p.firing
	p.firing = id
	p.depth++
	for pc := 0; pc+1 < len(body); pc += 2 {
		p.op(body[pc], int(body[pc+1]))
	}
	p.depth--
	p.firing = outer
}

// next returns the model's earliest pending event, -1 if there is none.
func (p *heapProgram) next() int {
	for p.lo < len(p.state) && p.state[p.lo] != evPending {
		p.lo++
	}
	best := -1
	for id := p.lo; id < len(p.state); id++ {
		if p.state[id] == evPending && (best < 0 || p.at[id] < p.at[best]) {
			best = id
		}
	}
	return best
}

func (p *heapProgram) add(at time.Duration, body []byte) int {
	p.at = append(p.at, at)
	p.state = append(p.state, evPending)
	p.body = append(p.body, body)
	return len(p.at) - 1
}

func (p *heapProgram) schedule(d time.Duration, withArg bool, body []byte) {
	p.t.Helper()
	id := p.add(p.k.Now()+d, body)
	took := p.k.fired
	var tm Timer
	if withArg {
		arg := new(int)
		*arg = id
		tm = p.k.AfterArg(d, p.logArgFn, arg)
	} else {
		tm = p.k.At(p.at[id], func() { p.fire(id) })
	}
	if took {
		if p.k.fired {
			p.t.Fatalf("event %d, a callback's first scheduling, left the fired event's slot in place", id)
		}
		p.intoRoot++
	}
	p.handles = append(p.handles, tm)
}

// noteSlot records where in the heap a pending handle's event sits.
func (p *heapProgram) noteSlot(tm Timer) {
	hits := &p.slotHits
	if p.depth > 0 {
		hits = &p.cbSlotHits
	}
	switch i := int(p.k.events[tm.i].idx); {
	case i == 0:
		hits[0]++
	case i == len(p.k.queue)-1:
		hits[2]++
	default:
		hits[1]++
	}
}

// stop cancels event id in the kernel and the model.
func (p *heapProgram) stop(id int) {
	p.t.Helper()
	wasPending := p.state[id] == evPending
	if wasPending {
		p.noteSlot(p.handles[id])
	}
	if got := p.handles[id].Stop(); got != wasPending {
		p.t.Fatalf("Stop(event %d) = %v, model pending = %v", id, got, wasPending)
	}
	if wasPending {
		p.state[id] = evCancelled
	}
}

// rearm moves event id to now+d: in the model id is cancelled and a new
// event scheduled, which is what Rearm promises to equal.
func (p *heapProgram) rearm(id int, d time.Duration) {
	p.t.Helper()
	var old Timer
	if id >= 0 {
		old = p.handles[id]
		if p.state[id] == evPending {
			p.noteSlot(old)
			p.state[id] = evCancelled
		}
	}
	next := p.add(p.k.Now()+d, nil)
	fn := func() { p.fire(next) }
	var tm Timer
	if p.stopAfter {
		old.Stop()
		tm = p.k.After(d, fn)
	} else {
		tm = p.k.Rearm(old, d, fn)
	}
	if old.Pending() || old.Stop() {
		p.t.Fatalf("handle of event %d still live after it was re-armed as %d", id, next)
	}
	if !tm.Pending() {
		p.t.Fatalf("re-armed event %d not pending", next)
	}
	p.handles = append(p.handles, tm)
}

// pending counts the model's pending events.
func (p *heapProgram) pending() int {
	n := 0
	for _, st := range p.state[p.lo:] {
		if st == evPending {
			n++
		}
	}
	return n
}

// checkQueue holds the index exact over the queue's live events, which
// must be the model's pending ones, without settling anything first.
func (p *heapProgram) checkQueue() {
	p.t.Helper()
	live := 0
	if p.k.fired {
		if p.depth == 0 {
			p.t.Fatalf("the fired event's slot outlived its callback")
		}
		live = 1
	}
	if n := p.pending(); len(p.k.queue)-live != n {
		p.t.Fatalf("%d queued (fired slot held: %v), model has %d pending", len(p.k.queue), p.k.fired, n)
	}
	for i, ev := range p.k.queue[live:] {
		if idx := p.k.events[ev].idx; int(idx) != i+live {
			p.t.Fatalf("queue[%d].idx = %d", i+live, idx)
		}
	}
	if p.k.Now() != p.now {
		p.t.Fatalf("clock at %v, model at %v", p.k.Now(), p.now)
	}
}

func (p *heapProgram) run(prog []byte) {
	p.prog = prog
	for p.pc = 0; p.pc+1 < len(prog); p.pc += 2 {
		p.op(prog[p.pc], int(prog[p.pc+1]))
	}
	p.k.Run()
	if id := p.next(); id >= 0 {
		p.t.Fatalf("final Run left event %d (at %v) pending", id, p.at[id])
	}
	p.checkQueue()
}

// op runs one operation, at the top level or in a callback.
func (p *heapProgram) op(op byte, x int) {
	p.t.Helper()
	switch op % 10 {
	case 0, 1, 2, 3, 4:
		// At the top level bits 4-5 of x give the event a body of that
		// many of the operations that follow.
		var body []byte
		if n := x >> 4 & 3; p.depth == 0 && n > 0 {
			body = p.prog[p.pc+2 : min(p.pc+2+2*n, len(p.prog))]
		}
		p.schedule(time.Duration(x%16)*time.Millisecond, op%10 >= 3, body)
	case 5:
		if len(p.handles) == 0 {
			break
		}
		// Recent handles are the pending ones, pushed last and so in
		// the heap's last slots unless their deadline lifted them.
		p.stop(len(p.handles) - 1 - x%min(len(p.handles), 64))
	case 6:
		if len(p.handles) == 0 {
			break
		}
		// Anywhere in the history: what is still pending from long
		// ago has sifted to the root or an inner slot; the rest are
		// fired, stopped or re-armed handles that must stay inert.
		p.stop(x * len(p.handles) / 256)
	case 7:
		horizon := p.k.Now() + time.Duration(x%8)*time.Millisecond
		p.k.RunUntil(horizon)
		for id := p.lo; id < len(p.state); id++ {
			if p.state[id] == evPending && p.at[id] <= horizon {
				p.t.Fatalf("RunUntil(%v) left event %d (at %v) pending", horizon, id, p.at[id])
			}
		}
		p.now = max(p.now, horizon)
	case 8:
		if x%2 == 0 {
			// Offset into the recent handles from bits 1-3 (7 in a
			// callback: its own, fired timer), new delay from bits 4-7:
			// earlier and later both happen.
			id := len(p.handles) - 1 - (x>>1)&7
			if (x>>1)&7 == 7 && p.firing >= 0 && p.firing < len(p.handles) {
				id = p.firing
			}
			p.rearm(max(id, -1), time.Duration(x>>4)*time.Millisecond)
			break
		}
		want, n := p.next(), p.firesAt[p.depth]
		if stepped := p.k.Step(); stepped != (want >= 0) || p.firesAt[p.depth]-n != b2i(stepped) {
			p.t.Fatalf("Step() = %v, firing %d events, with %d pending in the model", stepped, p.firesAt[p.depth]-n, p.pending())
		}
	case 9:
		if x%4 == 3 {
			if got, n := p.k.Pending(), p.pending(); got != n {
				p.t.Fatalf("Pending() = %d, model has %d", got, n)
			}
			break
		}
		if p.saved == nil {
			p.saved = &heapSaved{ks: p.k.Snapshot(), n: len(p.at), lo: p.lo, now: p.now, state: append([]evState(nil), p.state...)}
			break
		}
		// Everything scheduled since the snapshot drops out; handles
		// of events pending at the snapshot come back to life.
		p.k.Restore(p.saved.ks)
		n := p.saved.n
		p.at, p.handles, p.body = p.at[:n], p.handles[:n], p.body[:n]
		p.state = append(p.state[:0], p.saved.state...)
		p.lo, p.now = p.saved.lo, p.saved.now
		p.saved = nil
	}
	p.checkQueue()
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestHeapOrderProperty runs seeded random programs of 12 000 operations,
// which must between them take events out of the root, an inner slot and
// the last slot of the heap, both at the top level and from callbacks,
// and schedule into a fired event's slot.
func TestHeapOrderProperty(t *testing.T) {
	var hits, cbHits [3]int
	intoRoot := 0
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prog := make([]byte, 2*12000)
		rng.Read(prog)
		p := newHeapProgram(t)
		p.run(prog)
		for i := range hits {
			hits[i] += p.slotHits[i]
			cbHits[i] += p.cbSlotHits[i]
		}
		intoRoot += p.intoRoot
	}
	for i, where := range []string{"root", "an inner slot", "the last slot"} {
		if hits[i] == 0 {
			t.Errorf("no Stop or Rearm found its event in %s", where)
		}
		if cbHits[i] == 0 {
			t.Errorf("no Stop or Rearm in a callback found its event in %s", where)
		}
	}
	if intoRoot == 0 {
		t.Error("no callback scheduled into its fired event's slot")
	}
}

// TestRearmEqualsStopAfter runs generated programs on a kernel that
// re-arms and on one that stops and schedules: the same ids fire in the
// same order and both end on the same sequence number.
func TestRearmEqualsStopAfter(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prog := make([]byte, 2*3000)
		rng.Read(prog)
		for i := 0; i < len(prog); i += 2 {
			if prog[i]%10 < 3 { // a third of the At operations become Rearm
				prog[i], prog[i+1] = 8, prog[i+1]&^1
			}
		}
		a, b := newHeapProgram(t), newHeapProgram(t)
		b.stopAfter = true
		a.run(prog)
		b.run(prog)
		if len(a.log) != len(b.log) {
			t.Fatalf("seed %d: Rearm fired %d events, Stop+After %d", seed, len(a.log), len(b.log))
		}
		for i := range a.log {
			if a.log[i] != b.log[i] {
				t.Fatalf("seed %d: firing %d is event %d with Rearm, %d with Stop+After", seed, i, a.log[i], b.log[i])
			}
		}
		if a.k.seq != b.k.seq {
			t.Fatalf("seed %d: seq %d with Rearm, %d with Stop+After", seed, a.k.seq, b.k.seq)
		}
	}
}

// TestRearmHandles pins what Rearm does to handles: a copy taken before
// goes inert, and a timer re-armed after a Snapshot is, after Restore, the
// timer the snapshot saw: live through its old handle, at its old deadline.
func TestRearmHandles(t *testing.T) {
	k := New(1)
	var fired []string
	old := k.After(10*time.Millisecond, func() { fired = append(fired, "old") })
	s := k.Snapshot()
	cp := old
	moved := k.Rearm(old, 50*time.Millisecond, func() { fired = append(fired, "moved") })
	if cp.Pending() || cp.Stop() || !moved.Pending() || k.Pending() != 1 {
		t.Fatalf("after Rearm: copy pending %v, new handle pending %v, %d queued", cp.Pending(), moved.Pending(), k.Pending())
	}
	k.Restore(s)
	if !old.Pending() || moved.Pending() {
		t.Fatalf("after Restore: snapshot's handle pending %v, post-snapshot handle pending %v", old.Pending(), moved.Pending())
	}
	k.Run()
	if len(fired) != 1 || fired[0] != "old" || k.Now() != 10*time.Millisecond {
		t.Fatalf("restored timer fired %v at %v, want [old] at 10ms", fired, k.Now())
	}
	// A timer that is not pending is simply scheduled.
	again := k.Rearm(old, time.Millisecond, func() { fired = append(fired, "again") })
	k.Run()
	if again.Pending() || len(fired) != 2 || fired[1] != "again" {
		t.Fatalf("Rearm of a fired timer: fired %v", fired)
	}
}

// FuzzHeapOrder lets the fuzzer look for an operation sequence that makes
// the heap disagree with the model; testdata/fuzz/FuzzHeapOrder holds
// programs for the cases that matter most (all-equal deadlines, a mass
// cancel, restore over post-snapshot growth, removal of the root and of
// the last slot, a re-arm to an earlier and to a later deadline) and for
// callbacks: one that schedules nothing, one that schedules an event
// earlier and one later than every pending one, one that stops the last
// slot and then schedules, and Pending, Snapshot and Restore called from
// a callback that holds its fired event's slot.
func FuzzHeapOrder(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 1<<14 {
			t.Skip("program longer than any interesting interleaving")
		}
		newHeapProgram(t).run(prog)
	})
}
