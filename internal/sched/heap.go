package sched

// eventHeap is the kernel's future-event set: a binary min-heap of slab
// indices ordered by their events' (at, seq). seq is unique per
// scheduling, so the order is total and the pop sequence — hence every
// trace — is the same for any heap shape. Most schedules do not push:
// Kernel.Step leaves the fired event's slot at the root, and the
// callback's first scheduling takes it (replace, one sift down), so the mix
// is sift-down-heavy, and two children per node cost two compares per
// level where four cost four. The sift loops are written out against the
// concrete type, so ordering costs two field compares rather than calls
// through heap.Interface.
//
// The heap holds int32 slab indices and every event's keys live in the
// kernel's pointer-free slab, which each method is handed as ev, so a
// sift writes no pointer and the collector's write barrier never fires in
// it. The heap is indexed: every queued event knows its slot (event.idx,
// -1 while not queued), which each move of a sift writes, so a timer is
// cancelled by removing its event and re-armed by re-keying it in place,
// one sift either way. The keys stay in the slab, not in the heap slots:
// slots holding (at, seq, event) were measured 10 % slower on the
// delivery workload — wider moves, and every move still writes idx in
// the slab.
type eventHeap []int32

// before reports whether a fires before b.
func before(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push adds event i to the heap.
func (h *eventHeap) push(ev []event, i int32) {
	*h = append(*h, i)
	h.up(ev, len(*h)-1)
}

// replace puts event i in slot 0 in place of the event there, which leaves
// the heap: one sift down where a remove(0) and a push would sift twice.
func (h eventHeap) replace(ev []event, i int32) {
	ev[h[0]].idx = -1
	h[0] = i
	h.down(ev, 0)
}

// remove takes the event in slot s out of the heap; slot 0 holds the
// earliest event.
func (h *eventHeap) remove(ev []event, s int) {
	q := *h
	i := q[s]
	n := len(q) - 1
	last := q[n]
	*h = q[:n]
	if s < n {
		q[s] = last
		h.fix(ev, s)
	}
	ev[i].idx = -1
}

// fix restores the invariant after the key of the event in slot s changed.
func (h eventHeap) fix(ev []event, s int) {
	if s > 0 && before(&ev[h[s]], &ev[h[(s-1)/2]]) {
		h.up(ev, s)
	} else {
		h.down(ev, s)
	}
}

// up sifts the event in slot s towards the root, moving parents down into
// the hole rather than swapping.
func (h eventHeap) up(ev []event, s int) {
	i := h[s]
	at, seq := ev[i].at, ev[i].seq
	for s > 0 {
		parent := (s - 1) / 2
		p := h[parent]
		if pat := ev[p].at; pat < at || pat == at && ev[p].seq < seq {
			break
		}
		h[s] = p
		ev[p].idx = int32(s)
		s = parent
	}
	h[s] = i
	ev[i].idx = int32(s)
}

// down sifts the event in slot s towards the leaves.
func (h eventHeap) down(ev []event, s int) {
	n := len(h)
	i := h[s]
	at, seq := ev[i].at, ev[i].seq
	for {
		c := 2*s + 1
		if c >= n {
			break
		}
		m := h[c]
		mat, mseq := ev[m].at, ev[m].seq
		if r := c + 1; r < n {
			if j := h[r]; ev[j].at < mat || ev[j].at == mat && ev[j].seq < mseq {
				c, m, mat, mseq = r, j, ev[j].at, ev[j].seq
			}
		}
		if mat > at || mat == at && mseq > seq {
			break
		}
		h[s] = m
		ev[m].idx = int32(s)
		s = c
	}
	h[s] = i
	ev[i].idx = int32(s)
}
