// Package core5g is the one-observer fixture: a second place an observer is
// stored, and the retired OnNAS hook field, shaped like the NAS observer
// method without its IMSI.
package core5g

import (
	"github.com/seed5g/seed/internal/modem"
	"github.com/seed5g/seed/internal/nas"
)

type tap struct {
	nas   modem.NASObserver                // want
	OnNAS func(sent bool, msg nas.Message) // want
}

// newTap sets the hook, so only its shape is at fault here.
func newTap(log func(string)) *tap {
	return &tap{OnNAS: func(_ bool, msg nas.Message) { log(nas.Name(msg.EPD(), msg.MessageType())) }}
}

func (t *tap) relay(imsi string, msg nas.Message) {
	if t.nas != nil {
		t.nas.NAS(imsi, false, msg)
	}
	if t.OnNAS != nil {
		t.OnNAS(false, msg)
	}
}
