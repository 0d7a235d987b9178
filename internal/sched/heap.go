package sched

// eventHeap is the kernel's future-event set: a 4-ary min-heap over
// pooled events ordered by (at, seq). seq is unique per scheduling, so the
// order is total and the pop sequence — hence every trace — is the same
// for any heap shape. Four children per node halve the tree depth against
// a binary heap: a push (the common operation; most timers are re-armed
// far more often than they fire) compares against half as many parents,
// and the four children a pop inspects share a cache line of pointers.
// The sift loops are written out against the concrete type, so ordering
// costs two field compares rather than calls through heap.Interface.
type eventHeap []*event

// before reports whether a fires before b.
func before(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push adds ev to the heap.
func (h *eventHeap) push(ev *event) {
	*h = append(*h, ev)
	h.up(len(*h) - 1)
}

// pop removes and returns the earliest event. The heap must not be empty.
func (h *eventHeap) pop() *event {
	q := *h
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = nil
	*h = q[:n]
	if n > 0 {
		q[0] = last
		h.down(0)
	}
	return top
}

// peek returns the earliest event without removing it, or nil.
func (h eventHeap) peek() *event {
	if len(h) == 0 {
		return nil
	}
	return h[0]
}

// init establishes the heap invariant over arbitrary contents.
func (h eventHeap) init() {
	if len(h) < 2 {
		return
	}
	for i := (len(h) - 2) / 4; i >= 0; i-- {
		h.down(i)
	}
}

// up sifts the event at i towards the root, moving parents down into the
// hole rather than swapping.
func (h eventHeap) up(i int) {
	ev := h[i]
	for i > 0 {
		parent := (i - 1) / 4
		p := h[parent]
		if !before(ev, p) {
			break
		}
		h[i] = p
		i = parent
	}
	h[i] = ev
}

// down sifts the event at i towards the leaves.
func (h eventHeap) down(i int) {
	n := len(h)
	ev := h[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		end := first + 4
		if end > n {
			end = n
		}
		least, m := first, h[first]
		for c := first + 1; c < end; c++ {
			if before(h[c], m) {
				least, m = c, h[c]
			}
		}
		if !before(m, ev) {
			break
		}
		h[i] = m
		i = least
	}
	h[i] = ev
}
