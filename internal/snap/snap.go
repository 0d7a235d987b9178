// Package snap implements a generic memento engine: Take walks the
// object graph reachable from a set of root pointers and records a deep
// copy of every mutable memory region it finds; Restore writes the
// recorded state back into the original objects in place. Together they
// turn an expensively-constructed object graph (a fully booted testbed)
// into a reusable prototype: boot once, Take once, then Restore before
// every reuse — microseconds instead of re-running the construction.
//
// Restore-in-place (rather than building an independent clone) is what
// makes closures safe: callbacks wired during construction keep capturing
// the same actor objects, and those objects' state snaps back. The
// corollary is the actor snapshot contract (documented in DESIGN.md): all
// mutable state must live in struct fields reachable from the roots, and
// closures may capture only object pointers and immutable values — never
// mutable locals.
//
// The engine distinguishes four region kinds:
//
//   - Object regions: the pointee of every pointer. The master copy is a
//     shallow struct copy — pointer fields, interface words, strings,
//     funcs, and slice/map headers are copied as words, because pointee
//     CONTENT is restored by the region that owns it. Identity is
//     preserved across Restore.
//   - Slice regions: the backing array content [0, len). Keyed by array
//     pointer, so aliasing slices restore coherently.
//   - Map regions: keys and values (shallow-copied into a master map);
//     Restore clears the live map and re-inserts, reusing its buckets, and
//     leaves alone a map it can tell is unchanged (mapRecord.unchanged).
//   - Snapshotter regions: types with internal invariants the generic
//     walker cannot see (intrusive heaps, pooled free lists) implement
//     Snapshotter and handle themselves; RootsProvider lets them expose
//     extra roots (e.g. in-flight timer arguments) for generic traversal.
//
// Restore performs a raw-byte comparison per region and skips regions
// whose bytes are unchanged, so a mostly-idle clone costs little more
// than a sweep of memcmps. Writes go through reflect (typedmemmove with
// GC write barriers) — never raw memcpy of pointer-bearing memory.
//
// The engine is not safe for concurrent use on overlapping graphs; the
// intended pattern is one Snapshot per prototype instance, used by one
// worker at a time.
package snap

import (
	"bytes"
	"reflect"
	"sync"
	"unsafe"
)

// Snapshotter is implemented by types that capture and restore their own
// state. The engine calls SnapshotState once at Take time and RestoreState
// with that same value on every Restore, and does not walk the type's
// fields.
type Snapshotter interface {
	SnapshotState() any
	RestoreState(state any)
}

// RootsProvider is optionally implemented by a Snapshotter to expose
// additional object-graph roots for generic traversal (for the simulation
// kernel: every queued event's argument payload, whose pointees must be
// restored alongside the kernel's own event records).
type RootsProvider interface {
	SnapshotRoots(visit func(root any))
}

// Skipper marks pointee types the walker must not record or traverse:
// types already owned by a Snapshotter (the kernel's pooled events and its
// random source) whose generic restoration would fight or repeat the
// hand-written one.
type Skipper interface {
	SnapSkip()
}

// Snapshot is the recorded state of an object graph.
type Snapshot struct {
	objs   []objRecord
	slices []sliceRecord
	maps   []mapRecord
	snaps  []snapRecord

	// seen dedupes regions during the walk; dropped after Take.
	seen map[regionKey]int
}

const (
	kindObj = iota
	kindSlice
	kindMap
)

type regionKey struct {
	ptr  unsafe.Pointer
	typ  reflect.Type
	kind uint8
}

type objRecord struct {
	orig    reflect.Value // addressable view of the live object
	master  reflect.Value // snapshot-owned copy
	origB   []byte        // raw bytes of the live object (compare only)
	masterB []byte
}

type sliceRecord struct {
	orig    reflect.Value // slice over the live backing array [0, n)
	master  reflect.Value // snapshot-owned element copy
	n       int
	origB   []byte
	masterB []byte
}

type mapRecord struct {
	orig   reflect.Value // the live map
	master reflect.Value // snapshot-owned shallow copy
	// iter walks master and k, v receive each entry on its way back into
	// orig: built once at Take, so a Restore allocates nothing per map
	// (MapRange, Key and Value would each cost an object per call).
	iter *reflect.MapIter
	k, v reflect.Value
}

// unchanged reports whether the live map provably holds the memento's
// entries: both empty, or — for maps whose values are pointers or maps,
// which a lookup hands back without allocating — the same size with the
// same value under every key. Anything else is restored.
func (r *mapRecord) unchanged() bool {
	n := r.master.Len()
	if r.orig.Len() != n {
		return false
	}
	if n == 0 {
		return true
	}
	if k := r.v.Kind(); k != reflect.Pointer && k != reflect.Map {
		return false
	}
	r.iter.Reset(r.master)
	for r.iter.Next() {
		r.k.SetIterKey(r.iter)
		r.v.SetIterValue(r.iter)
		if live := r.orig.MapIndex(r.k); !live.IsValid() || live.UnsafePointer() != r.v.UnsafePointer() {
			return false
		}
	}
	return true
}

type snapRecord struct {
	sn    Snapshotter
	state any
}

// Take records the state of every mutable region reachable from roots.
// Roots must be pointers (or structs of pointers passed by address).
func Take(roots ...any) *Snapshot {
	s := &Snapshot{seen: make(map[regionKey]int, 256)}
	for _, r := range roots {
		if r == nil {
			continue
		}
		s.walk(reflect.ValueOf(r))
	}
	s.seen = nil
	return s
}

// Restore writes the recorded state back into the live objects. Regions
// whose raw bytes are unchanged are skipped. Safe to call any number of
// times; each call re-establishes exactly the Take-time state.
func (s *Snapshot) Restore() {
	// Slice content first, then object regions (which re-point headers at
	// the arrays just restored), then maps, then self-snapshotting types.
	// Snapshotters go last so their hand-written restore wins over any
	// generic region that aliases their internals.
	for i := range s.slices {
		r := &s.slices[i]
		if !bytes.Equal(r.origB, r.masterB) {
			reflect.Copy(r.orig, r.master)
		}
	}
	for i := range s.objs {
		r := &s.objs[i]
		if !bytes.Equal(r.origB, r.masterB) {
			r.orig.Set(r.master)
		}
	}
	for i := range s.maps {
		r := &s.maps[i]
		if r.unchanged() {
			continue
		}
		r.orig.Clear()
		r.iter.Reset(r.master)
		for r.iter.Next() {
			r.k.SetIterKey(r.iter)
			r.v.SetIterValue(r.iter)
			r.orig.SetMapIndex(r.k, r.v)
		}
	}
	for i := range s.snaps {
		s.snaps[i].sn.RestoreState(s.snaps[i].state)
	}
}

// Regions returns the recorded region counts (objects, slice backings,
// maps, self-snapshotting types) for tests and diagnostics.
func (s *Snapshot) Regions() (objs, slices, maps, snapshotters int) {
	return len(s.objs), len(s.slices), len(s.maps), len(s.snaps)
}

func rawBytes(p unsafe.Pointer, n uintptr) []byte {
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(p), n)
}

// clean returns a fully usable (non-read-only) view of v. Fields of
// addressable structs are re-derived from their address; maps are
// reconstructed from their header word. Values that are already usable
// pass through.
func clean(v reflect.Value) reflect.Value {
	if v.CanAddr() {
		return reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem()
	}
	return v
}

// cleanMap rebuilds a map value from its header word so iteration yields
// non-read-only keys and values even when v came from an unexported
// field of a non-addressable struct.
func cleanMap(v reflect.Value) reflect.Value {
	m := reflect.New(v.Type())
	*(*unsafe.Pointer)(m.UnsafePointer()) = unsafe.Pointer(v.Pointer())
	return m.Elem()
}

func (s *Snapshot) walk(v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		s.walkPointer(v)
	case reflect.Interface:
		if !v.IsNil() {
			s.walk(v.Elem())
		}
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < t.NumField(); i++ {
			if !hasIndirections(t.Field(i).Type) {
				continue
			}
			s.walk(clean(v.Field(i)))
		}
	case reflect.Slice:
		s.walkSlice(v)
	case reflect.Array:
		if hasIndirections(v.Type().Elem()) {
			for i := 0; i < v.Len(); i++ {
				s.walk(clean(v.Index(i)))
			}
		}
	case reflect.Map:
		s.walkMap(v)
	}
	// Strings are immutable, funcs and chans are opaque words, scalars
	// carry no indirections: all restored (shallowly) by their containing
	// region.
}

func (s *Snapshot) walkPointer(v reflect.Value) {
	if v.IsNil() {
		return
	}
	ptr := unsafe.Pointer(v.Pointer())
	elemT := v.Type().Elem()
	key := regionKey{ptr, elemT, kindObj}
	if _, ok := s.seen[key]; ok {
		return
	}
	s.seen[key] = -1

	pv := reflect.NewAt(elemT, ptr) // clean *T over the live object
	if _, ok := pv.Interface().(Skipper); ok {
		return
	}
	if sn, ok := pv.Interface().(Snapshotter); ok {
		s.snaps = append(s.snaps, snapRecord{sn: sn, state: sn.SnapshotState()})
		if rp, ok := pv.Interface().(RootsProvider); ok {
			rp.SnapshotRoots(func(root any) {
				if root != nil {
					s.walk(reflect.ValueOf(root))
				}
			})
		}
		return
	}

	if size := elemT.Size(); size > 0 {
		mp := reflect.New(elemT)
		mp.Elem().Set(pv.Elem())
		s.objs = append(s.objs, objRecord{
			orig:    pv.Elem(),
			master:  mp.Elem(),
			origB:   rawBytes(ptr, size),
			masterB: rawBytes(unsafe.Pointer(mp.Pointer()), size),
		})
	}
	s.walk(pv.Elem())
}

func (s *Snapshot) walkSlice(v reflect.Value) {
	n := v.Len()
	elemT := v.Type().Elem()
	if n == 0 || elemT.Size() == 0 {
		return
	}
	ptr := unsafe.Pointer(v.Pointer())
	key := regionKey{ptr, elemT, kindSlice}
	prev := -1
	if idx, ok := s.seen[key]; ok {
		if n <= s.slices[idx].n {
			return
		}
		prev = idx // an aliasing slice sees more elements: widen the region
	}

	arr := reflect.NewAt(reflect.ArrayOf(n, elemT), ptr).Elem().Slice(0, n)
	master := reflect.MakeSlice(v.Type(), n, n)
	reflect.Copy(master, arr)
	rec := sliceRecord{
		orig: arr, master: master, n: n,
		origB:   rawBytes(ptr, uintptr(n)*elemT.Size()),
		masterB: rawBytes(unsafe.Pointer(master.Pointer()), uintptr(n)*elemT.Size()),
	}
	walkFrom := 0
	if prev >= 0 {
		walkFrom = s.slices[prev].n
		s.slices[prev] = rec
		s.seen[key] = prev
	} else {
		s.seen[key] = len(s.slices)
		s.slices = append(s.slices, rec)
	}
	if hasIndirections(elemT) {
		for i := walkFrom; i < n; i++ {
			s.walk(arr.Index(i))
		}
	}
}

func (s *Snapshot) walkMap(v reflect.Value) {
	if v.IsNil() {
		return
	}
	t := v.Type()
	ptr := unsafe.Pointer(v.Pointer())
	key := regionKey{ptr, t, kindMap}
	if _, ok := s.seen[key]; ok {
		return
	}
	s.seen[key] = -1

	live := cleanMap(v)
	master := reflect.MakeMapWithSize(t, live.Len())
	kIndir := hasIndirections(t.Key())
	vIndir := hasIndirections(t.Elem())
	it := live.MapRange()
	for it.Next() {
		k, val := it.Key(), it.Value()
		master.SetMapIndex(k, val)
		if kIndir {
			s.walk(k)
		}
		if vIndir {
			s.walk(val)
		}
	}
	s.maps = append(s.maps, mapRecord{
		orig: live, master: master, iter: master.MapRange(),
		k: reflect.New(t.Key()).Elem(), v: reflect.New(t.Elem()).Elem(),
	})
}

// indirCache memoizes hasIndirections per type (shared across concurrent
// Takes from parallel pool workers).
var indirCache sync.Map // reflect.Type -> bool

// hasIndirections reports whether values of type t can reference mutable
// memory outside themselves (or contain sub-values that can), i.e.
// whether the walker needs to descend into them. Large scalar arrays and
// plain-data structs are pruned here, which is what keeps Take cheap on
// buffer-heavy graphs.
func hasIndirections(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.Interface, reflect.Map, reflect.Slice:
		return true
	case reflect.Struct, reflect.Array:
	default:
		return false
	}
	if v, ok := indirCache.Load(t); ok {
		return v.(bool)
	}
	found := false
	if t.Kind() == reflect.Array {
		found = hasIndirections(t.Elem())
	} else {
		for i := 0; i < t.NumField(); i++ {
			if hasIndirections(t.Field(i).Type) {
				found = true
				break
			}
		}
	}
	indirCache.Store(t, found)
	return found
}
