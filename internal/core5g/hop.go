package core5g

import "github.com/seed5g/seed/internal/nas"

// nasHop is a decoded uplink message waiting out a core function's
// processing latency. It rides the kernel event as its AfterArg argument
// (so a snapshot taken mid-hop records it) next to a callback the function
// stores once, which is what keeps a signalling hop free of a closure per
// message.
type nasHop struct {
	imsi string
	msg  nas.Message
}

// hopPool is a core function's free list of hop records; it lives in that
// function's fields and rewinds with it.
type hopPool struct {
	free []*nasHop
}

func (p *hopPool) take(imsi string, msg nas.Message) *nasHop {
	var h *nasHop
	if n := len(p.free); n > 0 {
		h = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
	} else {
		h = new(nasHop)
	}
	h.imsi, h.msg = imsi, msg
	return h
}

// warm grows the pool to at least n free records.
func (p *hopPool) warm(n int) {
	for len(p.free) < n {
		p.free = append(p.free, new(nasHop))
	}
}

// release returns h to the pool and hands back what it carried.
func (p *hopPool) release(h *nasHop) (string, nas.Message) {
	imsi, msg := h.imsi, h.msg
	*h = nasHop{}
	p.free = append(p.free, h)
	return imsi, msg
}
