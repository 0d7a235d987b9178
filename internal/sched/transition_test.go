package sched

import "testing"

type seen struct {
	t    Transition
	a, b int
}

// transitionLog is an observer that takes transitions.
type transitionLog struct{ got []seen }

func (l *transitionLog) Transition(t Transition, a, b int) { l.got = append(l.got, seen{t, a, b}) }

// The sink in its four states: nobody observing (counted, nothing else), an
// observer that takes transitions (handed the kind and both operands, inside
// the call), one that does not (held, never called), the observer removed
// again. None of it allocates, and none of it is snapshot state: a restore
// rewinds neither the count nor the observer.
func TestAnnounceObserveAndCount(t *testing.T) {
	k := New(1)
	k.Announce(StallDeclared, 2, 1)
	if k.Announced() != 1 {
		t.Fatalf("Announced = %d after one unwatched transition", k.Announced())
	}

	log := new(transitionLog)
	k.Observe(log)
	if k.Observer() != any(log) {
		t.Fatalf("Observer() = %v, want what Observe installed", k.Observer())
	}
	snap := k.Snapshot()
	k.Announce(SessionUp, 3, 0)
	k.Announce(ResolverOverride, 0x08080808, 0)
	k.Restore(snap)
	k.Announce(StallCleared, 0, 0)
	want := []seen{{SessionUp, 3, 0}, {ResolverOverride, 0x08080808, 0}, {StallCleared, 0, 0}}
	if len(log.got) != len(want) {
		t.Fatalf("observer saw %v, want %v", log.got, want)
	}
	for i := range want {
		if log.got[i] != want[i] {
			t.Fatalf("observer saw %v, want %v", log.got, want)
		}
	}
	if k.Announced() != 4 {
		t.Fatalf("Announced = %d, want 4: a restore must not rewind it", k.Announced())
	}

	// An observer of something else: held for the layers that look for it,
	// counted past.
	k.Observe("takes no transitions")
	k.Announce(BlockAdded, 6, 0)
	k.Observe(nil)
	k.Announce(BlockAdded, 6, 0)
	if len(log.got) != len(want) || k.Announced() != 6 || k.Observer() != nil {
		t.Fatalf("after Observe(nil): observer saw %d transitions, Announced = %d, Observer() = %v", len(log.got), k.Announced(), k.Observer())
	}

	log.got = make([]seen, 0, 256)
	k.Observe(log)
	if allocs := testing.AllocsPerRun(100, func() { k.Announce(ModemState, 5, 0) }); allocs != 0 {
		t.Errorf("an observed Announce allocates %.0f objects", allocs)
	}
	k.Observe(nil)
	if allocs := testing.AllocsPerRun(100, func() { k.Announce(ModemState, 5, 0) }); allocs != 0 {
		t.Errorf("an unobserved Announce allocates %.0f objects", allocs)
	}
}
