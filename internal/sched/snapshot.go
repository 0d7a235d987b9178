package sched

import (
	"math/rand"
	"time"
)

// This file implements the kernel's side of the snapshot/clone protocol
// (see internal/snap): the kernel owns intrusive structures a generic
// graph walker must not touch — the event heap, the pooled free list, and
// the generation counters that keep stale Timer handles inert — so it
// snapshots and restores them by hand. The generic engine discovers the
// kernel through the snap.Snapshotter interface and leaves its pooled
// events alone via the snap.Skipper marker on *event.

// KernelSnapshot captures a kernel's schedule: the clock, the sequence
// counter, every queued event (with its generation, so Timer handles held
// by actors remain valid after Restore), and the free list in order (so
// post-restore allocations replay identically). It also captures the
// random stream: the source by value, and the *rand.Rand over it by value
// too, because Rand.Read keeps the unread bytes of its last draw there.
type KernelSnapshot struct {
	now       time.Duration
	seq       uint64
	events    []eventSnap
	freeOrder []freeSnap
	rng       rand.Rand
	src       source
}

type eventSnap struct {
	ev    *event
	at    time.Duration
	seq   uint64
	gen   uint32
	fn    func()
	argFn func(any)
	arg   any
}

type freeSnap struct {
	ev  *event
	gen uint32
}

// Snapshot records the kernel's current schedule and the position of its
// random stream, so draws after a Restore repeat the draws after Snapshot.
func (k *Kernel) Snapshot() *KernelSnapshot {
	k.settle()
	s := &KernelSnapshot{now: k.now, seq: k.seq, src: k.src, rng: *k.rng}
	s.events = make([]eventSnap, 0, len(k.queue))
	for _, ev := range k.queue {
		s.events = append(s.events, eventSnap{
			ev: ev, at: ev.at, seq: ev.seq, gen: ev.gen,
			fn: ev.fn, argFn: ev.argFn, arg: ev.arg,
		})
	}
	for ev := k.free; ev != nil; ev = ev.next {
		s.freeOrder = append(s.freeOrder, freeSnap{ev: ev, gen: ev.gen})
	}
	return s
}

// Restore rewinds the kernel to the snapshot: clock, sequence counter,
// queued events (generations rolled back so actor-held Timer handles for
// in-flight timers work again), the free list in its original order, and
// the random stream. Events created only after the snapshot drop out of
// the kernel and are left for the garbage collector.
func (k *Kernel) Restore(s *KernelSnapshot) {
	k.now = s.now
	k.seq = s.seq
	k.src = s.src
	*k.rng = s.rng
	k.stopped = false
	k.fired = false

	for i, ev := range k.queue {
		ev.idx = -1 // unless the snapshot queues it again below
		k.queue[i] = nil
	}
	k.queue = k.queue[:0]
	for i := range s.events {
		es := &s.events[i]
		ev := es.ev
		ev.at = es.at
		ev.seq = es.seq
		ev.gen = es.gen
		ev.fn = es.fn
		ev.argFn = es.argFn
		ev.arg = es.arg
		ev.next = nil
		k.queue = append(k.queue, ev)
	}
	k.queue.init()

	// Rebuild the free list front-to-back (push in reverse) so alloc hands
	// out the same events in the same order as the original timeline.
	k.free = nil
	for i := len(s.freeOrder) - 1; i >= 0; i-- {
		fs := &s.freeOrder[i]
		ev := fs.ev
		ev.gen = fs.gen
		ev.fn = nil
		ev.argFn = nil
		ev.arg = nil
		ev.next = k.free
		k.free = ev
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
	for _, ev := range k.queue {
		if ev.arg != nil {
			visit(ev.arg)
		}
	}
}

// SnapSkip implements snap.Skipper: pooled events are owned by the
// kernel's hand-written snapshot; the generic walker must neither record
// nor traverse them (Timer fields inside actors still reach them).
func (*event) SnapSkip() {}
