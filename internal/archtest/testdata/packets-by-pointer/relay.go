// Package core5g is the packets-by-pointer fixture: a hook that takes a
// packet by value, copying it out of the frame it was born in.
package core5g

import "github.com/seed5g/seed/internal/radio"

type relay struct {
	forward func(radio.Packet) // want
}

// pass hands the frame's packet on.
func (r *relay) pass(p *radio.Packet) { r.forward(*p) }
