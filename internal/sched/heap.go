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
//
// The heap is indexed: every queued event knows its slot (event.idx, -1
// while not queued), which each move of a sift writes, so a timer is
// cancelled by removing its event and re-armed by re-keying it in place,
// one sift either way. The keys stay in the events: slots holding
// (at, seq, *event) were measured 10 % slower on the delivery workload —
// 24-byte moves, and every move still has to write idx through the pointer.
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

// remove takes the event in slot i out of the heap and returns it; slot 0
// holds the earliest event.
func (h *eventHeap) remove(i int) *event {
	q := *h
	ev := q[i]
	n := len(q) - 1
	last := q[n]
	q[n] = nil
	*h = q[:n]
	if i < n {
		q[i] = last
		h.fix(i)
	}
	ev.idx = -1
	return ev
}

// fix restores the invariant after the key of the event in slot i changed.
func (h eventHeap) fix(i int) {
	if i > 0 && before(h[i], h[(i-1)/4]) {
		h.up(i)
	} else {
		h.down(i)
	}
}

// init establishes the heap invariant over arbitrary contents.
func (h eventHeap) init() {
	for i, ev := range h {
		ev.idx = int32(i)
	}
	for i := (len(h) - 2) / 4; i >= 0 && len(h) > 1; i-- {
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
		p.idx = int32(i)
		i = parent
	}
	h[i] = ev
	ev.idx = int32(i)
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
		m.idx = int32(i)
		i = least
	}
	h[i] = ev
	ev.idx = int32(i)
}
