package core5g

import (
	"github.com/seed5g/seed/internal/freelist"
	"github.com/seed5g/seed/internal/nas"
)

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
	freelist.List[nasHop]
}

func (p *hopPool) take(imsi string, msg nas.Message) *nasHop {
	h := p.Get()
	h.imsi, h.msg = imsi, msg
	return h
}

// release returns h to the pool and hands back what it carried.
func (p *hopPool) release(h *nasHop) (string, nas.Message) {
	imsi, msg := h.imsi, h.msg
	p.Put(h)
	return imsi, msg
}
