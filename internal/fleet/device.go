package fleet

import (
	"github.com/seed5g/seed/internal/core"
	"github.com/seed5g/seed/internal/crypto5g"
)

// SimDevice is the device end of the fleet channel: the subscriber
// envelope plus the seal/open steps the SIM-side stack performs around
// the carrier app's raw record blobs. cmd/seedload drives millions of
// these.
type SimDevice struct {
	IMSI string
	env  *crypto5g.Envelope
}

// NewSimDevice derives the subscriber envelope for an IMSI.
func NewSimDevice(master [16]byte, imsi string) *SimDevice {
	return &SimDevice{IMSI: imsi, env: NewSubscriberEnvelope(master, imsi)}
}

// SealRecords seals a raw record blob (the CarrierApp upload payload) for
// the uplink. Each call advances the envelope counter, so the same blob
// sealed twice produces distinct wire bytes and the server can
// distinguish a retry (same bytes, duplicate counter) from a new upload.
func (d *SimDevice) SealRecords(blob []byte) ([]byte, error) {
	return d.env.Seal(crypto5g.Uplink, blob)
}

// SealReport seals a marshalled failure report for the uplink.
func (d *SimDevice) SealReport(rep []byte) ([]byte, error) {
	return d.env.Seal(crypto5g.Uplink, rep)
}

// OpenSuggest opens a sealed TSuggest payload and decodes the suggestion.
// ok is false when the model abstained (empty payload).
func (d *SimDevice) OpenSuggest(sealed []byte) (core.DiagMessage, bool, error) {
	if len(sealed) == 0 {
		return core.DiagMessage{}, false, nil
	}
	raw, err := d.env.Open(crypto5g.Downlink, sealed)
	if err != nil {
		return core.DiagMessage{}, false, err
	}
	m, err := core.UnmarshalDiag(raw)
	if err != nil {
		return core.DiagMessage{}, false, err
	}
	return m, true, nil
}
