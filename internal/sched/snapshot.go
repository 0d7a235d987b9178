package sched

import (
	"math/rand"
	"time"
)

// This file implements the kernel's side of the snapshot/clone protocol
// (see internal/snap): the kernel owns intrusive structures a generic
// graph walker must not touch — the event slab, its heap and free list,
// and the generation counters that keep stale Timer handles inert — so it
// snapshots and restores them by hand. The generic engine discovers the
// kernel through the snap.Snapshotter interface.

// KernelSnapshot captures a kernel's schedule: the clock, the sequence
// counter, the event slab as plain data (every event's keys and
// generation, so Timer handles held by actors remain valid after Restore,
// and the free list in order, so post-restore allocations replay
// identically), the heap, and the queued events' callbacks. It also
// captures the random stream: the source by value, and the *rand.Rand over
// it by value too, because Rand.Read keeps the unread bytes of its last
// draw there.
type KernelSnapshot struct {
	now    time.Duration
	seq    uint64
	free   int32
	events []event
	queue  eventHeap
	calls  []call // calls[j] is queue[j]'s
	rng    rand.Rand
	src    source
}

// Snapshot records the kernel's current schedule and the position of its
// random stream, so draws after a Restore repeat the draws after Snapshot.
func (k *Kernel) Snapshot() *KernelSnapshot {
	k.settle()
	s := &KernelSnapshot{
		now: k.now, seq: k.seq, free: k.free, src: k.src, rng: *k.rng,
		events: append([]event(nil), k.events...),
		queue:  append(eventHeap(nil), k.queue...),
		calls:  make([]call, len(k.queue)),
	}
	for j, i := range k.queue {
		s.calls[j] = k.calls[i]
	}
	return s
}

// Restore rewinds the kernel to the snapshot: clock, sequence counter,
// event slab (generations rolled back so actor-held Timer handles for
// in-flight timers work again), heap, the free list in its original
// order, and the random stream. Slots created after the snapshot are cut
// from the slab, so restoring again and again never grows it; every slot
// the snapshot does not queue, cut ones included, drops its callback, so
// no finished run's closures outlive the restore. A handle taken after the
// snapshot belongs to the timeline Restore undoes: like the actor state
// holding it, which the snapshot engine rewinds, it is not to be used.
func (k *Kernel) Restore(s *KernelSnapshot) {
	k.now = s.now
	k.seq = s.seq
	k.src = s.src
	*k.rng = s.rng
	k.stopped = false
	k.fired = false

	k.free = s.free
	k.events = append(k.events[:0], s.events...)
	k.queue = append(k.queue[:0], s.queue...)
	n := len(s.events)
	if n > len(k.calls) {
		k.calls = append(k.calls, make([]call, n-len(k.calls))...)
	}
	clear(k.calls[n:])
	k.calls = k.calls[:n]
	for i := range k.calls {
		if c := &k.calls[i]; k.events[i].idx < 0 && (c.fn != nil || c.argFn != nil || c.arg != nil) {
			*c = call{}
		}
	}
	for j, i := range k.queue {
		k.calls[i] = s.calls[j]
	}
}

// Reseed re-seeds the kernel's RNG in place: afterwards Rand() yields the
// stream of a kernel built with New(seed). Cloned cells call it (at the
// same point where a fresh cell would) so each clone gets its own random
// stream while everything else replays from the snapshot. It costs a few
// stores — the source computes register words as draws reach them — and
// goes through Rand.Seed so bytes buffered by an earlier Rand.Read are
// dropped as well.
func (k *Kernel) Reseed(seed int64) { k.rng.Seed(seed) }

// SnapshotState/RestoreState implement snap.Snapshotter.
func (k *Kernel) SnapshotState() any     { return k.Snapshot() }
func (k *Kernel) RestoreState(state any) { k.Restore(state.(*KernelSnapshot)) }

// SnapshotRoots implements snap.RootsProvider: it exposes every queued
// event's argument payload — in-flight AtArg/AfterArg events carry pooled
// packets whose CONTENT must be restored even though the kernel itself
// only replays the pointer.
func (k *Kernel) SnapshotRoots(visit func(root any)) {
	k.settle()
	for _, i := range k.queue {
		if arg := k.calls[i].arg; arg != nil {
			visit(arg)
		}
	}
}
