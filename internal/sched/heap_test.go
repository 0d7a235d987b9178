package sched

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// The kernel's promise is that events fire in (deadline, insertion) order
// whatever else happens to the queue in between. heapProgram interprets a
// byte string as a sequence of At / AfterArg / Timer.Stop / RunUntil /
// Step / Rearm / Snapshot / Restore operations against a kernel and, in
// lockstep, against a model that is nothing but a list of pending events:
// every drain must fire exactly the model's pending events up to the
// horizon, in the order sort.SliceStable by deadline gives the
// insertion-ordered list. Deadlines come from a 16-value range, so equal
// deadlines — where only the sequence number orders — are the common case.
// After every operation the heap's index must be exact: queue[i].idx == i,
// and the queue holds the model's pending events and nothing else.
type heapProgram struct {
	t *testing.T
	k *Kernel
	// stopAfter makes the Rearm operation the Stop + After pair it stands
	// for (TestRearmEqualsStopAfter runs a program both ways).
	stopAfter bool

	// One entry per scheduling, in insertion order (index = event id).
	at      []time.Duration
	state   []evState
	handles []Timer
	fired   []int
	log     []int // every id fired so far, in order

	// Heap slots Stop and Rearm found their event in: root, inner, last.
	slotHits [3]int

	logArgFn func(any) // arg: *int, the event id
	saved    *heapSaved
}

type evState uint8

const (
	evPending evState = iota
	evFired
	evCancelled
)

type heapSaved struct {
	ks    *KernelSnapshot
	n     int
	state []evState
}

func newHeapProgram(t *testing.T) *heapProgram {
	p := &heapProgram{t: t, k: New(1)}
	p.logArgFn = func(v any) { p.fired = append(p.fired, *v.(*int)) }
	return p
}

func (p *heapProgram) schedule(d time.Duration, withArg bool) {
	id := len(p.at)
	at := p.k.Now() + d
	p.at = append(p.at, at)
	p.state = append(p.state, evPending)
	var tm Timer
	if withArg {
		arg := new(int)
		*arg = id
		tm = p.k.AfterArg(d, p.logArgFn, arg)
	} else {
		tm = p.k.At(at, func() { p.fired = append(p.fired, id) })
	}
	p.handles = append(p.handles, tm)
}

// noteSlot records where in the heap a pending handle's event sits.
func (p *heapProgram) noteSlot(tm Timer) {
	switch i := int(tm.ev.idx); {
	case i == 0:
		p.slotHits[0]++
	case i == len(p.k.queue)-1:
		p.slotHits[2]++
	default:
		p.slotHits[1]++
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
	next := len(p.at)
	p.at = append(p.at, p.k.Now()+d)
	p.state = append(p.state, evPending)
	fn := func() { p.fired = append(p.fired, next) }
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

// pendingUpTo returns the ids the model expects a drain to horizon to
// fire, in firing order.
func (p *heapProgram) pendingUpTo(horizon time.Duration) []int {
	var want []int
	for id, st := range p.state {
		if st == evPending && p.at[id] <= horizon {
			want = append(want, id)
		}
	}
	sort.SliceStable(want, func(i, j int) bool { return p.at[want[i]] < p.at[want[j]] })
	return want
}

func (p *heapProgram) expectFired(want []int, what string) {
	p.t.Helper()
	if len(p.fired) != len(want) {
		p.t.Fatalf("%s fired %d events %v, model expects %d %v", what, len(p.fired), p.fired, len(want), want)
	}
	for i, id := range want {
		if p.fired[i] != id {
			p.t.Fatalf("%s: position %d fired event %d (at %v), model expects %d (at %v)",
				what, i, p.fired[i], p.at[p.fired[i]], id, p.at[id])
		}
		p.state[id] = evFired
	}
	p.log = append(p.log, p.fired...)
	p.fired = p.fired[:0]
}

func (p *heapProgram) checkPending() {
	p.t.Helper()
	n := 0
	for _, st := range p.state {
		if st == evPending {
			n++
		}
	}
	if got := p.k.Pending(); got != n || len(p.k.queue) != n {
		p.t.Fatalf("Pending() = %d over %d queued, model has %d", got, len(p.k.queue), n)
	}
	for i, ev := range p.k.queue {
		if int(ev.idx) != i {
			p.t.Fatalf("queue[%d].idx = %d", i, ev.idx)
		}
	}
}

func (p *heapProgram) run(prog []byte) {
	const maxHorizon = time.Duration(1<<62 - 1)
	for pc := 0; pc+1 < len(prog); pc += 2 {
		op, x := prog[pc], int(prog[pc+1])
		switch op % 10 {
		case 0, 1, 2:
			p.schedule(time.Duration(x%16)*time.Millisecond, false)
		case 3, 4:
			p.schedule(time.Duration(x%16)*time.Millisecond, true)
		case 5:
			if len(p.handles) == 0 {
				continue
			}
			// Recent handles are the pending ones, pushed last and so in
			// the heap's last slots unless their deadline lifted them.
			p.stop(len(p.handles) - 1 - x%min(len(p.handles), 64))
		case 6:
			if len(p.handles) == 0 {
				continue
			}
			// Anywhere in the history: what is still pending from long
			// ago has sifted to the root or an inner slot; the rest are
			// fired, stopped or re-armed handles that must stay inert.
			p.stop(x * len(p.handles) / 256)
		case 7:
			horizon := p.k.Now() + time.Duration(x%8)*time.Millisecond
			want := p.pendingUpTo(horizon)
			p.k.RunUntil(horizon)
			p.expectFired(want, "RunUntil")
			if p.k.Now() != horizon {
				p.t.Fatalf("RunUntil left the clock at %v, want %v", p.k.Now(), horizon)
			}
		case 8:
			if x%2 == 0 {
				// Offset into the recent handles from bits 1-3, new
				// delay from bits 4-7: earlier and later both happen.
				id := len(p.handles) - 1 - (x>>1)&7
				p.rearm(max(id, -1), time.Duration(x>>4)*time.Millisecond)
				break
			}
			want := p.pendingUpTo(maxHorizon)
			if len(want) > 1 {
				want = want[:1]
			}
			if stepped := p.k.Step(); stepped != (len(want) == 1) {
				p.t.Fatalf("Step() = %v with %d events pending in the model", stepped, len(want))
			}
			p.expectFired(want, "Step")
		case 9:
			if p.saved == nil {
				p.saved = &heapSaved{ks: p.k.Snapshot(), n: len(p.at), state: append([]evState(nil), p.state...)}
				break
			}
			// Everything scheduled since the snapshot drops out; handles
			// of events pending at the snapshot come back to life.
			p.k.Restore(p.saved.ks)
			p.at, p.handles = p.at[:p.saved.n], p.handles[:p.saved.n]
			p.state = append(p.state[:0], p.saved.state...)
			p.saved = nil
		}
		p.checkPending()
	}
	want := p.pendingUpTo(maxHorizon)
	p.k.Run()
	p.expectFired(want, "final Run")
	p.checkPending()
}

// TestHeapOrderProperty runs seeded random programs of 12 000 operations,
// which must between them take events out of the root, an inner slot and
// the last slot of the heap.
func TestHeapOrderProperty(t *testing.T) {
	var hits [3]int
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prog := make([]byte, 2*12000)
		rng.Read(prog)
		p := newHeapProgram(t)
		p.run(prog)
		for i, n := range p.slotHits {
			hits[i] += n
		}
	}
	for i, where := range []string{"root", "an inner slot", "the last slot"} {
		if hits[i] == 0 {
			t.Errorf("no Stop or Rearm found its event in %s", where)
		}
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
// the last slot, a re-arm to an earlier and to a later deadline).
func FuzzHeapOrder(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 1<<14 {
			t.Skip("program longer than any interesting interleaving")
		}
		newHeapProgram(t).run(prog)
	})
}
