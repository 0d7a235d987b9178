package sched

import "testing"

// The sink in its three states: nobody watching (counted, nothing else), a
// watcher (handed the kind and both operands, inside the call), the watcher
// removed again. None of it allocates, and none of it is snapshot state: a
// restore rewinds neither the count nor the watcher.
func TestAnnounceWatchAndCount(t *testing.T) {
	k := New(1)
	k.Announce(StallDeclared, 2, 1)
	if k.Announced() != 1 {
		t.Fatalf("Announced = %d after one unwatched transition", k.Announced())
	}

	type seen struct {
		t    Transition
		a, b int
	}
	var got []seen
	k.Watch(func(t Transition, a, b int) { got = append(got, seen{t, a, b}) })
	snap := k.Snapshot()
	k.Announce(SessionUp, 3, 0)
	k.Announce(ResolverOverride, 0x08080808, 0)
	k.Restore(snap)
	k.Announce(StallCleared, 0, 0)
	want := []seen{{SessionUp, 3, 0}, {ResolverOverride, 0x08080808, 0}, {StallCleared, 0, 0}}
	if len(got) != len(want) {
		t.Fatalf("watcher saw %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("watcher saw %v, want %v", got, want)
		}
	}
	if k.Announced() != 4 {
		t.Fatalf("Announced = %d, want 4: a restore must not rewind it", k.Announced())
	}

	k.Watch(nil)
	k.Announce(BlockAdded, 6, 0)
	if len(got) != len(want) || k.Announced() != 5 {
		t.Fatalf("after Watch(nil): watcher saw %d transitions, Announced = %d", len(got), k.Announced())
	}

	count := 0
	k.Watch(func(Transition, int, int) { count++ })
	if allocs := testing.AllocsPerRun(100, func() { k.Announce(ModemState, 5, 0) }); allocs != 0 {
		t.Errorf("a watched Announce allocates %.0f objects", allocs)
	}
	k.Watch(nil)
	if allocs := testing.AllocsPerRun(100, func() { k.Announce(ModemState, 5, 0) }); allocs != 0 {
		t.Errorf("an unwatched Announce allocates %.0f objects", allocs)
	}
}
