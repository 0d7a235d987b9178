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
//     pointer, so aliasing slices restore coherently: the longest view
//     seen sets the region's length.
//   - Map regions: keys and values (shallow-copied into two master
//     arrays); Restore clears the live map and re-inserts, reusing its
//     buckets, and leaves alone a map it can tell is unchanged
//     (mapRecord.unchanged).
//   - Snapshotter regions: types with internal invariants the generic
//     walker cannot see (intrusive heaps, pooled free lists) implement
//     Snapshotter and handle themselves; RootsProvider lets them expose
//     extra roots (e.g. in-flight timer arguments) for generic traversal.
//
// Take walks memory, not reflect.Values. Every type the walk meets is
// compiled, once per process, into a plan: its kind and size, whether it
// can reach mutable memory at all, whether it holds pointers, the offsets
// and plans of exactly the struct fields that can reach memory, its
// element plan, and, for a pointer type *T, which of Skipper, Snapshotter
// and RootsProvider it implements. The walker steps from a value's
// address to its fields' by those offsets; reflection is left for what
// needs it — a typed master per region, map iteration, and the dynamic
// type behind an interface word. The walk only finds the regions (a set
// keyed by address and plan drops the ones it met before) and counts
// them; the records and their masters are then built in slices of
// exactly that length, and the walk's state is dropped.
//
// Restore performs a raw-byte comparison per region and skips regions
// whose bytes are unchanged, so a mostly-idle clone costs little more
// than a sweep of memcmps. Writes of memory that holds pointers go
// through reflect (typedmemmove with GC write barriers) — never a raw
// memcpy; pointer-free memory, whose masters share one byte arena, is
// copied plainly.
//
// Plans are shared by concurrent Takes. A Snapshot is not safe for
// concurrent use on overlapping graphs; the intended pattern is one
// Snapshot per prototype instance, used by one worker at a time.
package snap

import (
	"bytes"
	"math"
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
	rawSlices []rawRegion // pointer-free slice backings
	slices    []region
	rawObjs   []rawRegion // pointer-free objects
	objs      []region
	maps      []mapRecord
	snaps     []snapRecord
}

// region is an object or a slice backing array that holds pointers: the
// live memory and the snapshot-owned master, both addressable values of
// the same type.
type region struct {
	orig, master reflect.Value
	size         uintptr
}

// restore rewrites the live memory from the master when their bytes
// differ, through reflect so that the collector sees the pointer writes.
func (r *region) restore() {
	if !bytes.Equal(r.bytes(r.orig), r.bytes(r.master)) {
		r.orig.Set(r.master)
	}
}

func (r *region) bytes(v reflect.Value) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(v.UnsafeAddr())), r.size)
}

// rawRegion is an object or a slice backing array that holds no pointers:
// its master is a stretch of the snapshot's one byte arena, and a plain
// copy restores it.
type rawRegion struct {
	orig, master *byte
	size         uintptr
}

func (r *rawRegion) restore() {
	orig, master := unsafe.Slice(r.orig, r.size), unsafe.Slice(r.master, r.size)
	if !bytes.Equal(orig, master) {
		copy(orig, master)
	}
}

type mapRecord struct {
	hdr  unsafe.Pointer // the live map as Take found it
	orig reflect.Value  // the live map, read through hdr (not through a field that may be reassigned)
	n    int            // entries at Take
	// For a map that had entries: its keys and values, shallow-copied into
	// two snapshot-owned arrays whose elements a Restore hands to the map
	// without allocating.
	keys, vals reflect.Value
}

// unchanged reports whether the live map provably holds the memento's
// entries: both empty, or — for maps whose values are pointers or maps,
// which a lookup hands back without allocating — the same size with the
// same value under every key. Anything else is restored.
func (r *mapRecord) unchanged() bool {
	if r.orig.Len() != r.n {
		return false
	}
	if r.n == 0 {
		return true
	}
	if k := r.vals.Index(0).Kind(); k != reflect.Pointer && k != reflect.Map {
		return false
	}
	for i := range r.n {
		live := r.orig.MapIndex(r.keys.Index(i))
		if !live.IsValid() || live.UnsafePointer() != r.vals.Index(i).UnsafePointer() {
			return false
		}
	}
	return true
}

func (r *mapRecord) restore() {
	if r.unchanged() {
		return
	}
	r.orig.Clear()
	for i := range r.n {
		r.orig.SetMapIndex(r.keys.Index(i), r.vals.Index(i))
	}
}

type snapRecord struct {
	sn    Snapshotter
	state any
}

// seenSlots sizes the walk's dedupe set: a one-device testbed reaches 100
// to 170 regions, and the set is not grown on the way there.
const seenSlots = 256

// Take records the state of every mutable region reachable from roots.
// Roots must be pointers (or structs of pointers passed by address).
func Take(roots ...any) *Snapshot {
	w := walker{seen: regionSet{slots: make([]regionSlot, seenSlots)}}
	for _, r := range roots {
		w.root(r)
	}
	return w.record()
}

// Restore writes the recorded state back into the live objects. Regions
// whose raw bytes are unchanged are skipped. Safe to call any number of
// times; each call re-establishes exactly the Take-time state.
func (s *Snapshot) Restore() {
	// Slice content first, then object regions (which re-point headers at
	// the arrays just restored), then maps, then self-snapshotting types.
	// Snapshotters go last so their hand-written restore wins over any
	// generic region that aliases their internals.
	for i := range s.rawSlices {
		s.rawSlices[i].restore()
	}
	for i := range s.slices {
		s.slices[i].restore()
	}
	for i := range s.rawObjs {
		s.rawObjs[i].restore()
	}
	for i := range s.objs {
		s.objs[i].restore()
	}
	for i := range s.maps {
		s.maps[i].restore()
	}
	for i := range s.snaps {
		s.snaps[i].sn.RestoreState(s.snaps[i].state)
	}
}

// Regions returns the recorded region counts (objects, slice backings,
// maps, self-snapshotting types) for tests and diagnostics.
func (s *Snapshot) Regions() (objs, slices, maps, snapshotters int) {
	return len(s.rawObjs) + len(s.objs), len(s.rawSlices) + len(s.slices), len(s.maps), len(s.snaps)
}

// ---------------------------------------------------------------------------
// Plans
// ---------------------------------------------------------------------------

// plan is what the walker knows about one type, compiled once per process.
type plan struct {
	typ  reflect.Type
	kind reflect.Kind
	size uintptr
	// indir: a value of the type can reference mutable memory outside
	// itself, or contains a sub-value that can, so the walker descends
	// into it. Scalars, strings, funcs, chans and structs and arrays of
	// them are pruned here, which is what keeps Take cheap on
	// buffer-heavy graphs.
	indir bool
	// ptrs: a value of the type holds pointers the collector must see
	// written; memory without them is restored by plain copy.
	ptrs   bool
	fields []fieldPlan // struct: the fields that are indir
	elem   *plan       // pointer target, array or slice element, map value
	key    *plan       // map key
	n      int         // array length
	// For a pointer to T: what *T implements.
	skip, snapshotter, rootsProvider bool
}

type fieldPlan struct {
	off uintptr
	pl  *plan
}

var (
	skipperType       = reflect.TypeFor[Skipper]()
	snapshotterType   = reflect.TypeFor[Snapshotter]()
	rootsProviderType = reflect.TypeFor[RootsProvider]()
)

var (
	plans   sync.Map   // reflect.Type -> *plan, complete plans only
	compile sync.Mutex // serializes compilation
)

// planOf returns the plan of t, compiling it (and every type it reaches
// that has none yet) on first use.
func planOf(t reflect.Type) *plan {
	if pl, ok := plans.Load(t); ok {
		return pl.(*plan)
	}
	compile.Lock()
	defer compile.Unlock()
	c := compiler{}
	pl := c.plan(t)
	// Publish only after every plan reached is filled in: a recursive
	// type's plans point at each other.
	for t, pl := range c {
		plans.Store(t, pl)
	}
	return pl
}

// compiler holds the plans one planOf call is building.
type compiler map[reflect.Type]*plan

func (c compiler) plan(t reflect.Type) *plan {
	if pl, ok := plans.Load(t); ok {
		return pl.(*plan)
	}
	if pl := c[t]; pl != nil {
		return pl // being compiled further up: only a pointer, slice or map can lead back here
	}
	pl := &plan{typ: t, kind: t.Kind(), size: t.Size()}
	c[t] = pl
	switch pl.kind {
	case reflect.Pointer:
		pl.indir, pl.ptrs = true, true
		pl.elem = c.plan(t.Elem())
		pt := reflect.PointerTo(t.Elem()) // t itself, unless t is a named pointer type
		pl.skip = pt.Implements(skipperType)
		pl.snapshotter = pt.Implements(snapshotterType)
		pl.rootsProvider = pt.Implements(rootsProviderType)
	case reflect.Slice:
		pl.indir, pl.ptrs = true, true
		pl.elem = c.plan(t.Elem())
	case reflect.Map:
		pl.indir, pl.ptrs = true, true
		pl.key, pl.elem = c.plan(t.Key()), c.plan(t.Elem())
	case reflect.Interface:
		pl.indir, pl.ptrs = true, true
	case reflect.String, reflect.Func, reflect.Chan, reflect.UnsafePointer:
		pl.ptrs = true
	case reflect.Array:
		pl.elem, pl.n = c.plan(t.Elem()), t.Len()
		pl.indir = pl.elem.indir
		pl.ptrs = pl.n > 0 && pl.elem.ptrs
	case reflect.Struct:
		for i := range t.NumField() {
			f := t.Field(i)
			fp := c.plan(f.Type)
			if fp.indir {
				pl.fields = append(pl.fields, fieldPlan{f.Offset, fp})
			}
			pl.ptrs = pl.ptrs || fp.ptrs
		}
		pl.indir = len(pl.fields) > 0
	}
	return pl
}

// ---------------------------------------------------------------------------
// The walk
// ---------------------------------------------------------------------------

const (
	kindObj = iota
	kindSlice
	kindMap
	kindSnap
)

// regionKey identifies a region: an object and a slice backing array are
// keyed by their address and element plan, a map by its header and the
// map type's plan.
type regionKey struct {
	ptr  unsafe.Pointer
	pl   *plan
	kind uint8
}

// found is a region the walk has reached: its index among the records it
// will have (-1 for none: a zero-size object, or a map whose entries are
// still being walked) and, for a slice, the longest length seen.
type found struct {
	idx, n int32
}

// regionSet is the walk's dedupe set: an open-addressed table of keys and
// their found records, a power of two long and at most three quarters
// full.
type regionSet struct {
	slots []regionSlot
	n     int
}

type regionSlot struct {
	key regionKey // nil ptr: empty
	found
}

// claim returns the record of key and whether the set held it; a new key
// gets a zero record. The pointer is good until the next claim.
func (s *regionSet) claim(key regionKey) (*found, bool) {
	if 4*(s.n+1) > 3*len(s.slots) {
		s.grow()
	}
	mask := uint64(len(s.slots) - 1)
	h := (uint64(uintptr(key.ptr)) ^ uint64(uintptr(unsafe.Pointer(key.pl)))<<20 ^ uint64(key.kind)) * 0x9E3779B97F4A7C15
	for i := h >> 32 & mask; ; i = (i + 1) & mask {
		sl := &s.slots[i]
		if sl.key == key {
			return &sl.found, true
		}
		if sl.key.ptr == nil {
			sl.key = key
			s.n++
			return &sl.found, false
		}
	}
}

func (s *regionSet) grow() {
	old := s.slots
	s.slots, s.n = make([]regionSlot, 2*len(old)), 0
	for _, sl := range old {
		if sl.key.ptr != nil {
			f, _ := s.claim(sl.key)
			*f = sl.found
		}
	}
}

// walker finds the regions reachable from the roots. It records nothing
// but their keys and counts: Snapshot records are built by record once
// those are known.
type walker struct {
	seen                      regionSet
	objs, slices, maps, snaps int32
	rawObjs, rawSlices        int32   // the pointer-free objects and slice backings
	rawBytes                  uintptr // their size: the arena's
}

// index numbers a new object or slice region of size bytes of plan pl
// among the typed or, when pl holds no pointers, the raw ones.
func (w *walker) index(pl *plan, size uintptr, typed, raw *int32) int32 {
	n := typed
	if !pl.ptrs {
		n = raw
		w.rawBytes += size
	}
	*n++
	return *n - 1
}

func (w *walker) root(r any) {
	if r != nil {
		v := reflect.ValueOf(r)
		w.value(v, planOf(v.Type()))
	}
}

// walk visits the value of plan pl stored at p. Only indir plans get here.
func (w *walker) walk(p unsafe.Pointer, pl *plan) {
	switch pl.kind {
	case reflect.Pointer:
		w.pointer(*(*unsafe.Pointer)(p), pl)
	case reflect.Struct:
		for _, f := range pl.fields {
			w.walk(unsafe.Add(p, f.off), f.pl)
		}
	case reflect.Array:
		for i := range pl.n {
			w.walk(unsafe.Add(p, uintptr(i)*pl.elem.size), pl.elem)
		}
	case reflect.Slice:
		// Any slice header reads as a []byte's: data pointer and length.
		h := *(*[]byte)(p)
		w.slice(unsafe.Pointer(unsafe.SliceData(h)), len(h), pl.elem)
	case reflect.Map, reflect.Interface:
		w.value(reflect.NewAt(pl.typ, p).Elem(), pl)
	}
}

// value visits v, a value of plan pl that the walk holds as a reflect.Value
// rather than an address: a root, an interface word, a map or a map entry.
func (w *walker) value(v reflect.Value, pl *plan) {
	switch pl.kind {
	case reflect.Pointer:
		w.pointer(v.UnsafePointer(), pl)
	case reflect.Slice:
		w.slice(v.UnsafePointer(), v.Len(), pl.elem)
	case reflect.Interface:
		if !v.IsNil() {
			e := v.Elem()
			w.value(e, planOf(e.Type()))
		}
	case reflect.Map:
		w.mapValue(v, pl)
	case reflect.Struct, reflect.Array:
		// A boxed or map-held value is no region of its own, and a copy
		// holds the same pointers and headers: walk the copy.
		if pl.indir {
			c := reflect.New(pl.typ)
			c.Elem().Set(v)
			w.walk(c.UnsafePointer(), pl)
		}
	}
}

// pointer visits the object at p, the target of a pointer of plan ptr.
func (w *walker) pointer(p unsafe.Pointer, ptr *plan) {
	if p == nil || ptr.skip {
		return
	}
	pl := ptr.elem
	key := regionKey{p, pl, kindObj}
	if ptr.snapshotter {
		key.kind = kindSnap
	}
	f, ok := w.seen.claim(key)
	if ok {
		return
	}
	if ptr.snapshotter {
		f.idx = w.snaps
		w.snaps++
		if ptr.rootsProvider {
			reflect.NewAt(pl.typ, p).Interface().(RootsProvider).SnapshotRoots(w.root)
		}
		return
	}
	f.idx = -1
	if pl.size > 0 {
		f.idx = w.index(pl, pl.size, &w.objs, &w.rawObjs)
	}
	if pl.indir {
		w.walk(p, pl)
	}
}

// slice visits the backing array at p of a slice of n elements of plan
// elem. A longer view of a known array widens its region.
func (w *walker) slice(p unsafe.Pointer, n int, elem *plan) {
	if n == 0 || elem.size == 0 {
		return
	}
	if n > math.MaxInt32 {
		panic("snap: a slice of more than 2^31-1 elements")
	}
	key := regionKey{p, elem, kindSlice}
	from := 0
	f, ok := w.seen.claim(key)
	if ok {
		if n <= int(f.n) {
			return
		}
		from = int(f.n)
		if !elem.ptrs {
			w.rawBytes += uintptr(n-from) * elem.size
		}
	} else {
		f.idx = w.index(elem, uintptr(n)*elem.size, &w.slices, &w.rawSlices)
	}
	f.n = int32(n)
	if elem.indir {
		for i := from; i < n; i++ {
			w.walk(unsafe.Add(p, uintptr(i)*elem.size), elem)
		}
	}
}

// mapValue visits the map m of plan pl. Its region is numbered after its
// entries' regions, as the entries are walked first.
func (w *walker) mapValue(m reflect.Value, pl *plan) {
	hdr := m.UnsafePointer()
	if hdr == nil {
		return
	}
	key := regionKey{hdr, pl, kindMap}
	f, ok := w.seen.claim(key)
	if ok {
		return
	}
	f.idx = -1
	if pl.key.indir || pl.elem.indir {
		var it reflect.MapIter
		it.Reset(m)
		for it.Next() {
			if pl.key.indir {
				w.value(it.Key(), pl.key)
			}
			if pl.elem.indir {
				w.value(it.Value(), pl.elem)
			}
		}
	}
	f, _ = w.seen.claim(key) // the entries' walk may have moved it
	f.idx = w.maps
	w.maps++
}

// record builds the snapshot of the regions the walk found, each record
// at its index, and copies every master.
func (w *walker) record() *Snapshot {
	s := &Snapshot{
		rawSlices: make([]rawRegion, w.rawSlices),
		slices:    make([]region, w.slices),
		rawObjs:   make([]rawRegion, w.rawObjs),
		objs:      make([]region, w.objs),
		maps:      make([]mapRecord, w.maps),
		snaps:     make([]snapRecord, w.snaps),
	}
	for i := range w.seen.slots {
		key, f := w.seen.slots[i].key, w.seen.slots[i].found
		if key.ptr == nil || f.idx < 0 {
			continue
		}
		pl := key.pl
		switch key.kind {
		case kindObj:
			if pl.ptrs {
				s.objs[f.idx] = newRegion(pl.typ, key.ptr)
			} else {
				s.rawObjs[f.idx] = rawRegion{orig: (*byte)(key.ptr), size: pl.size}
			}
		case kindSlice:
			if pl.ptrs {
				s.slices[f.idx] = newRegion(reflect.ArrayOf(int(f.n), pl.typ), key.ptr)
			} else {
				s.rawSlices[f.idx] = rawRegion{orig: (*byte)(key.ptr), size: uintptr(f.n) * pl.size}
			}
		case kindMap:
			s.maps[f.idx].record(pl.typ, key.ptr)
		case kindSnap:
			s.snaps[f.idx].sn = reflect.NewAt(pl.typ, key.ptr).Interface().(Snapshotter)
		}
	}
	arena := make([]byte, w.rawBytes)
	for _, raw := range [][]rawRegion{s.rawSlices, s.rawObjs} {
		for i := range raw {
			r := &raw[i]
			r.master = unsafe.SliceData(arena)
			arena = arena[copy(arena, unsafe.Slice(r.orig, r.size)):]
		}
	}
	// In the order the walk met them, which is the order Restore uses.
	for i := range s.snaps {
		s.snaps[i].state = s.snaps[i].sn.SnapshotState()
	}
	return s
}

func newRegion(t reflect.Type, p unsafe.Pointer) region {
	orig := reflect.NewAt(t, p).Elem()
	master := reflect.New(t).Elem()
	master.Set(orig)
	return region{orig, master, t.Size()}
}

// record fills r from the live map of type t whose header is hdr.
func (r *mapRecord) record(t reflect.Type, hdr unsafe.Pointer) {
	r.hdr = hdr
	r.orig = reflect.NewAt(t, unsafe.Pointer(&r.hdr)).Elem()
	r.n = r.orig.Len()
	if r.n == 0 {
		return
	}
	r.keys = reflect.New(reflect.ArrayOf(r.n, t.Key())).Elem()
	r.vals = reflect.New(reflect.ArrayOf(r.n, t.Elem())).Elem()
	var it reflect.MapIter
	it.Reset(r.orig)
	for i := 0; it.Next(); i++ {
		r.keys.Index(i).SetIterKey(&it)
		r.vals.Index(i).SetIterValue(&it)
	}
}
