package sched

// eventHeap is the kernel's future-event set: a binary min-heap over
// pooled events ordered by (at, seq). seq is unique per scheduling, so the
// order is total and the pop sequence — hence every trace — is the same
// for any heap shape. Most schedules do not push: Kernel.Step leaves the
// fired event's slot at the root, and the callback's first scheduling
// takes it (replace, one sift down), so the mix is sift-down-heavy, and
// two children per node cost two compares per level where four cost four.
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

// replace puts ev in slot 0 in place of the event there, which leaves the
// heap: one sift down where a remove(0) and a push would sift twice.
func (h eventHeap) replace(ev *event) {
	h[0].idx = -1
	h[0] = ev
	h.down(0)
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
	if i > 0 && before(h[i], h[(i-1)/2]) {
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
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// up sifts the event at i towards the root, moving parents down into the
// hole rather than swapping.
func (h eventHeap) up(i int) {
	ev := h[i]
	for i > 0 {
		parent := (i - 1) / 2
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
		least := 2*i + 1
		if least >= n {
			break
		}
		m := h[least]
		if r := least + 1; r < n && before(h[r], m) {
			least, m = r, h[r]
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
