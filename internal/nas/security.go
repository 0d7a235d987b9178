package nas

import (
	"errors"

	"github.com/seed5g/seed/internal/crypto5g"
)

// ErrNotProtected is returned for a message without a security envelope,
// and ErrIntegrity for one whose MAC-I does not verify. They are values,
// not formatted per failure: a receiver that tries a downlink against two
// contexts in a row, or is fed forgeries, fails verification on its
// steady-state path and should not allocate for it.
var (
	ErrNotProtected = errors.New("nas: message is not security protected")
	ErrIntegrity    = errors.New("nas: integrity check failed")
)

// Security header types (TS 24.501 §9.3).
const (
	// SecHdrPlain marks an unprotected NAS message.
	SecHdrPlain byte = 0x00
	// SecHdrIntegrity marks an integrity-protected NAS message.
	SecHdrIntegrity byte = 0x01
)

// secEnvelopeLen is the security envelope prefix: EPD | security header |
// MAC-I(4) | SEQ(1), followed by the complete plain NAS message.
const secEnvelopeLen = 7

// SecurityContext is a NAS security association (one per UE after a
// successful Security Mode procedure). It integrity-protects outbound
// messages with 128-EIA2 and verifies inbound ones, maintaining the
// uplink/downlink NAS COUNTs with the standard SEQ-byte estimation.
type SecurityContext struct {
	ik      [16]byte
	eia2    crypto5g.EIA2Key // expanded once; reused for every message
	ulCount uint32
	dlCount uint32

	protectedOut int
	verifiedIn   int
}

// NewSecurityContext creates a context keyed with the integrity key from
// the AKA run (the testbed uses IK directly where a real deployment would
// run the key-derivation chain down to K_NASint).
func NewSecurityContext(ik [16]byte) *SecurityContext {
	c := new(SecurityContext)
	(*Pool)(nil).KeySecurityContext(c, ik)
	return c
}

func (c *SecurityContext) setKey() {
	if err := c.eia2.SetKey(c.ik[:]); err != nil {
		panic(err) // fixed-size key cannot fail
	}
}

// Stats returns (messages protected, messages verified).
func (c *SecurityContext) Stats() (out, in int) { return c.protectedOut, c.verifiedIn }

// Protect wraps an encoded plain NAS message in an integrity-protected
// envelope for the given direction. It copies plain into the returned
// envelope (one allocation), so callers may reuse plain's backing buffer.
func (c *SecurityContext) Protect(dir crypto5g.Direction, plain []byte) []byte {
	return c.AppendProtect(make([]byte, 0, secEnvelopeLen+len(plain)), dir, plain)
}

// AppendProtect is Protect appending the envelope to dst (a pooled frame's
// buffer) instead of allocating it. plain must not alias dst's spare
// capacity.
func (c *SecurityContext) AppendProtect(dst []byte, dir crypto5g.Direction, plain []byte) []byte {
	count := &c.ulCount
	if dir == crypto5g.Downlink {
		count = &c.dlCount
	}
	*count++
	start := len(dst)
	dst = append(dst, EPD5GMM, SecHdrIntegrity, 0, 0, 0, 0, byte(*count)) // MAC-I filled below; SEQ
	dst = append(dst, plain...)
	mac := c.eia2.MAC(*count, 1, dir, dst[start+6:])
	copy(dst[start+2:start+6], mac[:])
	c.protectedOut++
	return dst
}

// IsProtected reports whether data carries a security envelope.
func IsProtected(data []byte) bool {
	return len(data) >= secEnvelopeLen && data[0] == EPD5GMM && data[1] == SecHdrIntegrity
}

// Unprotect verifies and strips the security envelope, returning the inner
// plain NAS message. The expected NAS COUNT is estimated from the SEQ byte
// per TS 33.501 §6.4.3.1 (wrap the high bits forward when the sequence
// number regresses).
func (c *SecurityContext) Unprotect(dir crypto5g.Direction, data []byte) ([]byte, error) {
	if !IsProtected(data) {
		return nil, ErrNotProtected
	}
	mac := data[2:6]
	body := data[6:]
	seq := body[0]

	count := &c.ulCount
	if dir == crypto5g.Downlink {
		count = &c.dlCount
	}
	est := (*count &^ 0xFF) | uint32(seq)
	if est <= *count {
		est += 0x100
	}
	want := c.eia2.MAC(est, 1, dir, body)
	if !crypto5g.ConstantTimeEqual(want[:], mac) {
		return nil, ErrIntegrity
	}
	*count = est
	c.verifiedIn++
	return body[1:], nil
}

// StripUnverified extracts the inner plain message from a protected
// envelope without verification. Receivers use it for protected *initial*
// messages arriving before they hold the sender's security context (the
// TS 24.501 §4.4.4.2 initial-message allowance); the subsequent
// authentication re-establishes trust.
func StripUnverified(data []byte) ([]byte, error) {
	if !IsProtected(data) {
		return nil, ErrNotProtected
	}
	return data[secEnvelopeLen:], nil
}
