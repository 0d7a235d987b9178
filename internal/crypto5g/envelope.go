package crypto5g

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// Envelope seals and opens SEED's collaboration payloads. Per §6 of the
// paper, "the information is encrypted with 128-EEA2 and integrity
// protected with 128-EIA2 using the pre-shared in-SIM key" with a message
// counter for replay protection. Sealed layout:
//
//	COUNTER(4) || CIPHERTEXT(n) || MAC-I(4)
//
// The MAC is computed over COUNTER || CIPHERTEXT (encrypt-then-MAC).
// Both sides keep a monotonically increasing counter per direction; an
// opened counter must exceed the last accepted one.
//
// The cipher states are expanded once at construction, and Seal/Open each
// make exactly one allocation (the returned message), encrypting directly
// into it; AppendSeal/AppendOpen write into the caller's buffer instead.
type Envelope struct {
	enc    EEA2Key
	integ  EIA2Key
	bearer uint8
	// Per-direction counters, indexed by Direction (Uplink=0, Downlink=1).
	sendCtr [2]uint32
	recvCtr [2]uint32
}

// ErrIntegrity is returned when a MAC check fails.
var ErrIntegrity = errors.New("crypto5g: envelope integrity check failed")

// ErrReplay is returned when a counter does not advance.
var ErrReplay = errors.New("crypto5g: envelope counter replayed or reordered")

// EnvelopeOverhead is the number of bytes Seal adds to a payload.
const EnvelopeOverhead = 8

// NewEnvelope builds an envelope using the pre-shared in-SIM key material.
// encKey and intKey must be 16 bytes each (they may be equal; real
// deployments derive both from K). bearer tags the protected channel.
func NewEnvelope(encKey, intKey []byte, bearer uint8) (*Envelope, error) {
	if len(encKey) != 16 || len(intKey) != 16 {
		return nil, fmt.Errorf("crypto5g: envelope keys must be 16 bytes, got %d and %d", len(encKey), len(intKey))
	}
	e := &Envelope{bearer: bearer}
	if err := e.enc.SetKey(encKey); err != nil {
		return nil, err
	}
	if err := e.integ.SetKey(intKey); err != nil {
		return nil, err
	}
	return e, nil
}

// Seal encrypts and authenticates plaintext for the given direction,
// advancing the send counter.
func (e *Envelope) Seal(dir Direction, plaintext []byte) ([]byte, error) {
	return e.AppendSeal(make([]byte, 0, len(plaintext)+EnvelopeOverhead), dir, plaintext), nil
}

// AppendSeal is Seal appending the sealed message to dst, which must not
// overlap plaintext.
func (e *Envelope) AppendSeal(dst []byte, dir Direction, plaintext []byte) []byte {
	e.sendCtr[dir&1]++
	ctr := e.sendCtr[dir&1]
	start := len(dst)
	dst = slices.Grow(dst, len(plaintext)+EnvelopeOverhead)[:start+len(plaintext)+EnvelopeOverhead]
	out := dst[start:]
	binary.BigEndian.PutUint32(out[0:4], ctr)
	e.enc.XORKeyStream(ctr, e.bearer, dir, out[4:4+len(plaintext)], plaintext)
	mac := e.integ.MAC(ctr, e.bearer, dir, out[:4+len(plaintext)])
	copy(out[4+len(plaintext):], mac[:])
	return dst
}

// Counters returns the per-direction send and receive counters, indexed
// by Direction. Together with the key they are the envelope's entire
// mutable state, so capturing them is enough to persist or hand off a
// subscriber channel (the fleet journal snapshots and shard handoffs).
func (e *Envelope) Counters() (send, recv [2]uint32) {
	return e.sendCtr, e.recvCtr
}

// SetCounters restores counters previously captured with Counters. The
// caller owns monotonicity: restoring a lower receive counter reopens the
// replay window, so recovery paths must only ever raise counters.
func (e *Envelope) SetCounters(send, recv [2]uint32) {
	e.sendCtr, e.recvCtr = send, recv
}

// Open verifies and decrypts a sealed message for the given direction,
// enforcing counter monotonicity.
func (e *Envelope) Open(dir Direction, sealed []byte) ([]byte, error) {
	if len(sealed) < EnvelopeOverhead {
		return e.AppendOpen(nil, dir, sealed)
	}
	return e.AppendOpen(make([]byte, 0, len(sealed)-EnvelopeOverhead), dir, sealed)
}

// AppendOpen is Open appending the plaintext to dst, which must not
// overlap sealed; on an error dst is returned as it was.
func (e *Envelope) AppendOpen(dst []byte, dir Direction, sealed []byte) ([]byte, error) {
	if len(sealed) < EnvelopeOverhead {
		return dst, fmt.Errorf("crypto5g: sealed message too short (%d bytes)", len(sealed))
	}
	ctr := binary.BigEndian.Uint32(sealed[0:4])
	body := sealed[4 : len(sealed)-4]
	mac := e.integ.MAC(ctr, e.bearer, dir, sealed[:len(sealed)-4])
	if !ConstantTimeEqual(mac[:], sealed[len(sealed)-4:]) {
		return dst, ErrIntegrity
	}
	if ctr <= e.recvCtr[dir&1] {
		return dst, ErrReplay
	}
	start := len(dst)
	dst = slices.Grow(dst, len(body))[:start+len(body)]
	e.enc.XORKeyStream(ctr, e.bearer, dir, dst[start:], body)
	e.recvCtr[dir&1] = ctr
	return dst, nil
}
