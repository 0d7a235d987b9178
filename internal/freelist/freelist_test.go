package freelist

import "testing"

type rec struct {
	id   int
	name string
}

func TestListRecyclesZeroed(t *testing.T) {
	var l List[rec]
	l.Warm(2)
	if len(l.free) != 2 {
		t.Fatalf("Warm(2) left %d spares", len(l.free))
	}
	a, b := l.Get(), l.Get()
	if a == b || *a != (rec{}) || *b != (rec{}) {
		t.Fatalf("Get returned %p %+v and %p %+v, want two distinct zero records", a, *a, b, *b)
	}
	if c := l.Get(); c == a || c == b {
		t.Fatal("an empty list handed out a record already in use")
	}
	a.id, a.name = 7, "x"
	l.Put(a)
	if *a != (rec{}) {
		t.Fatalf("Put left %+v in the spare", *a)
	}
	if got := l.Get(); got != a {
		t.Fatal("Get did not hand back the spare put last")
	}
	l.Warm(1)
	if len(l.free) != 1 {
		t.Fatalf("Warm(1) on an empty list left %d spares", len(l.free))
	}
}

// buf is a Recycler: a spare keeps its list's backing array.
type buf struct {
	id    int
	list  []int
	spare []int
}

func (b *buf) Recycle() { *b = buf{spare: b.list[:0]} }

func TestListRecyclesRecycler(t *testing.T) {
	var l List[buf]
	b := l.Get()
	b.id, b.list = 3, append(b.list, 1, 2)
	backing := &b.list[0]
	l.Put(b)
	got := l.Get()
	if got != b || got.id != 0 || got.list != nil || len(got.spare) != 0 || cap(got.spare) < 2 || &got.spare[:1][0] != backing {
		t.Fatalf("recycled spare %+v, want id 0, no list, and the list's backing array kept", *got)
	}
}
