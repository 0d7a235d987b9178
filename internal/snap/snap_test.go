package snap

import (
	"reflect"
	"testing"
)

type inner struct {
	n    int
	name string
}

type holder struct {
	val     int
	ptr     *inner
	buf     []byte
	tags    map[string]int
	ifc     any
	cb      func() int
	self    *holder
	skip    *skipped
	ignored int
}

type skipped struct{ n int }

func (*skipped) SnapSkip() {}

func buildHolder() *holder {
	h := &holder{
		val:  7,
		ptr:  &inner{n: 1, name: "one"},
		buf:  []byte{1, 2, 3},
		tags: map[string]int{"a": 1},
		skip: &skipped{n: 5},
	}
	h.ifc = h.ptr
	h.cb = func() int { return h.val * 2 }
	h.self = h
	return h
}

func TestRestoreInPlace(t *testing.T) {
	h := buildHolder()
	origPtr := h.ptr
	s := Take(h)

	h.val = 99
	h.ptr.n = 42
	h.ptr.name = "mutated"
	h.buf[0] = 200
	h.tags["a"] = 9
	h.tags["b"] = 2
	h.ptr = &inner{n: 1000}

	s.Restore()

	if h.val != 7 {
		t.Errorf("val = %d, want 7", h.val)
	}
	if h.ptr != origPtr {
		t.Error("pointer identity not preserved")
	}
	if h.ptr.n != 1 || h.ptr.name != "one" {
		t.Errorf("inner = %+v, want {1 one}", *h.ptr)
	}
	if h.buf[0] != 1 {
		t.Errorf("buf[0] = %d, want 1", h.buf[0])
	}
	if len(h.tags) != 1 || h.tags["a"] != 1 {
		t.Errorf("tags = %v, want map[a:1]", h.tags)
	}
	if got := h.cb(); got != 14 {
		t.Errorf("cb() = %d, want 14 (closure must see restored state)", got)
	}
}

func TestRestoreIdempotent(t *testing.T) {
	h := buildHolder()
	s := Take(h)
	for i := 0; i < 3; i++ {
		h.val = 100 + i
		h.buf = append(h.buf, byte(i))
		s.Restore()
		if h.val != 7 || len(h.buf) != 3 {
			t.Fatalf("round %d: val=%d len(buf)=%d", i, h.val, len(h.buf))
		}
	}
}

func TestSkipperNotRestored(t *testing.T) {
	h := buildHolder()
	s := Take(h)
	h.skip.n = 77
	s.Restore()
	if h.skip.n != 77 {
		t.Errorf("skip.n = %d, want 77 (Skipper regions must not be touched)", h.skip.n)
	}
}

func TestCycleTerminates(t *testing.T) {
	h := buildHolder() // h.self = h
	s := Take(h)
	objs, _, _, _ := s.Regions()
	if objs == 0 {
		t.Fatal("no object regions recorded")
	}
	s.Restore()
}

func TestInterfaceDynamicValueWalked(t *testing.T) {
	h := buildHolder()
	s := Take(h)
	// h.ifc aliases h.ptr; mutating through the interface must be undone.
	h.ifc.(*inner).n = 55
	s.Restore()
	if h.ptr.n != 1 {
		t.Errorf("ptr.n = %d, want 1 (interface pointee must be restored)", h.ptr.n)
	}
}

func TestSliceAliasing(t *testing.T) {
	type twoViews struct {
		a []int
		b []int
	}
	backing := []int{10, 20, 30, 40}
	tv := &twoViews{a: backing[:2], b: backing}
	s := Take(tv)
	backing[0], backing[3] = -1, -4
	s.Restore()
	if backing[0] != 10 || backing[3] != 40 {
		t.Errorf("backing = %v, want [10 20 30 40]", backing)
	}
}

func TestSliceHeaderRestoredAfterAppendRealloc(t *testing.T) {
	h := buildHolder()
	s := Take(h)
	h.buf = append(h.buf, make([]byte, 1024)...) // force realloc
	h.buf[0] = 250
	s.Restore()
	if len(h.buf) != 3 || h.buf[0] != 1 {
		t.Errorf("buf = %v, want [1 2 3]", h.buf)
	}
}

func TestSnapshotterHooks(t *testing.T) {
	fs := &fakeSnapshotter{n: 5, extra: &inner{n: 3}}
	s := Take(fs)
	fs.n = 100
	fs.restored = 0
	fs.extra.n = 300
	s.Restore()
	if fs.n != 5 {
		t.Errorf("n = %d, want 5 (RestoreState must run)", fs.n)
	}
	if fs.restored != 1 {
		t.Errorf("restored = %d, want 1", fs.restored)
	}
	if fs.extra.n != 3 {
		t.Errorf("extra.n = %d, want 3 (SnapshotRoots pointees must be restored)", fs.extra.n)
	}
}

type fakeSnapshotter struct {
	n        int
	restored int
	extra    *inner
}

func (f *fakeSnapshotter) SnapshotState() any { return f.n }
func (f *fakeSnapshotter) RestoreState(s any) {
	f.n = s.(int)
	f.restored++
}
func (f *fakeSnapshotter) SnapshotRoots(visit func(any)) { visit(f.extra) }

func TestMapWithPointerValues(t *testing.T) {
	type reg struct {
		m map[string]*inner
	}
	r := &reg{m: map[string]*inner{"x": {n: 1}}}
	keep := r.m["x"]
	s := Take(r)
	r.m["x"].n = 9
	r.m["y"] = &inner{n: 2}
	s.Restore()
	if len(r.m) != 1 {
		t.Fatalf("len(m) = %d, want 1", len(r.m))
	}
	if r.m["x"] != keep || r.m["x"].n != 1 {
		t.Errorf("m[x] = %+v (identity %v), want n=1 same pointer", r.m["x"], r.m["x"] == keep)
	}
}

func TestUnexportedDeepFields(t *testing.T) {
	type deep struct {
		hidden struct {
			vals map[int]int
			p    *inner
		}
	}
	d := &deep{}
	d.hidden.vals = map[int]int{1: 1}
	d.hidden.p = &inner{n: 4}
	s := Take(d)
	d.hidden.vals[1] = 99
	d.hidden.p.n = 99
	s.Restore()
	if d.hidden.vals[1] != 1 || d.hidden.p.n != 4 {
		t.Errorf("hidden = vals%v p%+v, want vals[1]=1 p.n=4", d.hidden.vals, *d.hidden.p)
	}
}

// TestHasIndirections holds the plan's indir predicate: the walker
// descends into a value only when it can reach memory outside itself.
func TestHasIndirections(t *testing.T) {
	cases := []struct {
		t    reflect.Type
		want bool
	}{
		{reflect.TypeOf(0), false},
		{reflect.TypeOf(""), false},
		{reflect.TypeOf([607]int64{}), false},
		{reflect.TypeOf([]int{}), true},
		{reflect.TypeOf(map[int]int{}), true},
		{reflect.TypeOf(&inner{}), true},
		{reflect.TypeOf(inner{}), false},
		{reflect.TypeOf(holder{}), true},
		{reflect.TypeOf([4]*inner{}), true},
		{reflect.TypeOf(func() {}), false},
	}
	for _, c := range cases {
		if got := planOf(c.t).indir; got != c.want {
			t.Errorf("planOf(%v).indir = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestDirtySkipLeavesCleanRegionsUntouched(t *testing.T) {
	// A shared (conceptually immutable) object reachable from two graphs:
	// restoring one graph must not write to the untouched shared region,
	// which TestRestoreInPlace can't distinguish. We check indirectly: a
	// region that was never dirtied keeps mutations applied AFTER Restore
	// was prepared but via an alias the snapshot doesn't know about. The
	// observable contract here is just that Restore of a clean graph is a
	// no-op for those bytes, so mutate nothing and ensure Restore changes
	// nothing.
	h := buildHolder()
	s := Take(h)
	before := *h.ptr
	s.Restore()
	if *h.ptr != before {
		t.Error("Restore of a clean graph mutated state")
	}
}
