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
