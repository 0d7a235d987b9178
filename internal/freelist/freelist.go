// Package freelist is the one free list the testbed's actors recycle
// what a cell creates and drops through: sessions, forwarding entries,
// APDU and diagnosis records, signalling hops, reject rules.
//
// A List lives in its owner's fields, which is to say in testbed state:
// a prototype snapshot records the spares it holds and a restore rewinds
// it, so every restored cell starts from the list the snapshot saw (the
// owner's Warm fills it first). A testbed runs on one goroutine, so a
// List takes no lock; it is never shared between testbeds.
package freelist

// List is a stack of spare *T.
type List[T any] struct {
	free []*T
}

// Get returns a spare as Put left it, the one put last, or a new zero T
// when the list is empty.
func (l *List[T]) Get() *T {
	n := len(l.free)
	if n == 0 {
		return new(T)
	}
	x := l.free[n-1]
	l.free[n-1] = nil
	l.free = l.free[:n-1]
	return x
}

// Recycler is a *T that resets itself when it is put back: to its zero
// value but for storage its next user refills, such as a list's backing
// array.
type Recycler interface{ Recycle() }

// Put resets x and keeps it for a later Get: a Recycler recycles itself,
// and any other x is zeroed, so that a spare pins nothing. Nothing may use
// x afterwards.
func (l *List[T]) Put(x *T) {
	if r, ok := any(x).(Recycler); ok {
		r.Recycle()
	} else {
		var zero T
		*x = zero
	}
	l.free = append(l.free, x)
}

// Warm grows the list to at least n spares, ahead of a prototype
// snapshot.
func (l *List[T]) Warm(n int) {
	for len(l.free) < n {
		l.free = append(l.free, new(T))
	}
}
