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
// Step / compact / Snapshot / Restore operations against a kernel and, in
// lockstep, against a model that is nothing but a list of pending events:
// every drain must fire exactly the model's pending events up to the
// horizon, in the order sort.SliceStable by deadline gives the
// insertion-ordered list. Deadlines come from a 16-value range, so equal
// deadlines — where only the sequence number orders — are the common case.
type heapProgram struct {
	t *testing.T
	k *Kernel

	// One entry per scheduling, in insertion order (index = event id).
	at      []time.Duration
	state   []evState
	handles []Timer
	fired   []int

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
	if got := p.k.Pending(); got != n {
		p.t.Fatalf("Pending() = %d, model has %d", got, n)
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
		case 5, 6:
			if len(p.handles) == 0 {
				continue
			}
			// Bias towards recent handles, which are the pending ones.
			id := len(p.handles) - 1 - x%min(len(p.handles), 64)
			wasPending := p.state[id] == evPending
			if got := p.handles[id].Stop(); got != wasPending {
				p.t.Fatalf("Stop(event %d) = %v, model pending = %v", id, got, wasPending)
			}
			if wasPending {
				p.state[id] = evCancelled
			}
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
				p.k.compact()
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

// TestHeapOrderProperty runs seeded random programs of 12 000 operations.
func TestHeapOrderProperty(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prog := make([]byte, 2*12000)
		rng.Read(prog)
		newHeapProgram(t).run(prog)
	}
}

// FuzzHeapOrder lets the fuzzer look for an operation sequence that makes
// the heap disagree with the model; testdata/fuzz/FuzzHeapOrder holds
// programs for the cases that matter most (all-equal deadlines, a mass
// cancel that forces compaction, restore over post-snapshot growth).
func FuzzHeapOrder(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 1<<14 {
			t.Skip("program longer than any interesting interleaving")
		}
		newHeapProgram(t).run(prog)
	})
}
