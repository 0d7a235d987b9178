// Package modem is the scratch-sends fixture: a message built as a literal
// at the send instead of in the sender's scratch.
package modem

import "github.com/seed5g/seed/internal/nas"

type sender struct{ out []nas.Message }

func (s *sender) sendNAS(msg nas.Message) { s.out = append(s.out, msg) }

// resume sends a Service Request that costs a message object per send.
func (s *sender) resume(id nas.MobileIdentity) {
	s.sendNAS(&nas.ServiceRequest{Identity: id}) // want
}
