// Package netemu emulates the communication links of the SEED testbed:
// the radio link between modem and gNB (carrying both NAS signaling and
// user data), the backhaul between gNB and core functions, and the local
// buses inside the device (APDU between modem and SIM, binder/API calls
// between OS, carrier app, and modem).
//
// A Link delivers arbitrary message values to a handler after a configured
// latency (+ seeded jitter), optionally dropping messages probabilistically
// or while the link is down, and, under its adversarial knobs, reordering
// or duplicating them. It delivers the value it was handed, never an
// altered one (a pooled frame belongs to its receiver, so a copy would
// leak it); the adversary engine is the one place that mutates traffic.
// Delivery order between two messages sent on the same link is preserved
// whenever their delivery times do not invert (FIFO is additionally
// enforced when Jitter would reorder them).
package netemu

import (
	"time"

	"github.com/seed5g/seed/internal/sched"
)

// Handler consumes messages delivered by a Link.
type Handler func(msg any)

// Cloner is implemented by pointer-shaped messages whose receiver takes
// ownership on delivery (pooled radio frames). A duplicating link
// delivers such a message's clone the second time, so the two receivers
// never share one object.
type Cloner interface {
	CloneMsg() any
}

// Link is a unidirectional message channel with latency, jitter and loss,
// plus seeded reordering and duplication.
type Link struct {
	k       *sched.Kernel
	name    string
	handler Handler

	Latency time.Duration // base one-way delay
	Jitter  time.Duration // uniform extra delay in [0, Jitter)
	Loss    float64       // probability a message is silently dropped

	// Adversarial knobs, both off by default. Each draws from the kernel
	// RNG at Send time, so a fixed kernel seed reproduces the exact same
	// reorder/duplicate pattern.

	// Reorder is the probability a message skips the FIFO clamp and takes
	// an extra uniform delay in [0, ReorderSpan), letting later sends
	// overtake it. ReorderSpan defaults to 4×Latency when zero.
	Reorder     float64
	ReorderSpan time.Duration
	// Dup is the probability a message is delivered a second time, the
	// duplicate trailing the original by a uniform delay in [0, Latency].
	Dup float64

	down        bool
	lastArrival time.Duration

	// deliver is the stored delivery callback: Send hands it to the
	// kernel's AtArg with the message as the argument, so queuing a
	// message allocates neither a closure nor (with the pooled event
	// kernel) an event.
	deliver func(msg any)

	sent       int
	delivered  int
	dropped    int
	reordered  int
	duplicated int
}

// NewLink creates a link on kernel k named name (for diagnostics)
// delivering to handler with the given base latency.
func NewLink(k *sched.Kernel, name string, latency time.Duration, handler Handler) *Link {
	l := &Link{k: k, name: name, Latency: latency, handler: handler}
	l.deliver = func(msg any) {
		l.delivered++
		l.handler(msg)
	}
	return l
}

// Name returns the link's diagnostic name.
func (l *Link) Name() string { return l.name }

// SetDown partitions (true) or heals (false) the link. Messages sent while
// the link is down are dropped; messages already in flight still arrive.
func (l *Link) SetDown(down bool) { l.down = down }

// Send queues msg for delivery. It returns false if the message was
// dropped (partition or random loss).
func (l *Link) Send(msg any) bool {
	l.sent++
	if l.down {
		l.dropped++
		return false
	}
	if l.Loss > 0 && l.k.Rand().Float64() < l.Loss {
		l.dropped++
		return false
	}
	d := l.Latency
	if l.Jitter > 0 {
		d += time.Duration(l.k.Rand().Int63n(int64(l.Jitter)))
	}
	arrival := l.k.Now() + d
	if l.Reorder > 0 && l.k.Rand().Float64() < l.Reorder {
		// A reordered message neither respects the FIFO clamp nor
		// advances it: it straggles while later sends overtake.
		span := l.ReorderSpan
		if span <= 0 {
			span = 4 * l.Latency
		}
		if span > 0 {
			arrival += time.Duration(l.k.Rand().Int63n(int64(span)))
		}
		l.reordered++
	} else {
		if arrival < l.lastArrival {
			arrival = l.lastArrival // preserve FIFO under jitter
		}
		l.lastArrival = arrival
	}
	l.k.AtArg(arrival, l.deliver, msg)
	if l.Dup > 0 && l.k.Rand().Float64() < l.Dup {
		extra := time.Duration(0)
		if l.Latency > 0 {
			extra = time.Duration(l.k.Rand().Int63n(int64(l.Latency) + 1))
		}
		if c, ok := msg.(Cloner); ok {
			msg = c.CloneMsg()
		}
		l.k.AtArg(arrival+extra, l.deliver, msg)
		l.duplicated++
	}
	return true
}

// Stats returns the number of messages sent, delivered so far, and dropped.
func (l *Link) Stats() (sent, delivered, dropped int) {
	return l.sent, l.delivered, l.dropped
}

// AdvStats returns the adversarial-event counters: messages reordered and
// duplicated so far.
func (l *Link) AdvStats() (reordered, duplicated int) {
	return l.reordered, l.duplicated
}

// Duplex is a bidirectional channel built from two Links sharing latency
// characteristics. A2B carries messages from side A to side B; B2A the
// reverse.
type Duplex struct {
	A2B *Link
	B2A *Link
}

// NewDuplex creates a Duplex named name with symmetric base latency.
// Handlers may be nil at construction and set later via SetHandlers.
func NewDuplex(k *sched.Kernel, name string, latency time.Duration, toB, toA Handler) *Duplex {
	return &Duplex{
		A2B: NewLink(k, name+"/a2b", latency, toB),
		B2A: NewLink(k, name+"/b2a", latency, toA),
	}
}

// SetHandlers installs the two receive handlers. Useful when endpoints are
// constructed after the link.
func (d *Duplex) SetHandlers(toB, toA Handler) {
	d.A2B.handler = toB
	d.B2A.handler = toA
}

// SetDown partitions or heals both directions.
func (d *Duplex) SetDown(down bool) {
	d.A2B.SetDown(down)
	d.B2A.SetDown(down)
}

// SetLoss sets the loss probability in both directions.
func (d *Duplex) SetLoss(p float64) {
	d.A2B.Loss = p
	d.B2A.Loss = p
}

// SetJitter sets the jitter bound in both directions.
func (d *Duplex) SetJitter(j time.Duration) {
	d.A2B.Jitter = j
	d.B2A.Jitter = j
}

// SetReorder sets the reorder probability (and straggler span) in both
// directions.
func (d *Duplex) SetReorder(p float64, span time.Duration) {
	d.A2B.Reorder, d.A2B.ReorderSpan = p, span
	d.B2A.Reorder, d.B2A.ReorderSpan = p, span
}

// SetDup sets the duplication probability in both directions.
func (d *Duplex) SetDup(p float64) {
	d.A2B.Dup = p
	d.B2A.Dup = p
}
