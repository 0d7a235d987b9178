// Package crypto5g implements the cryptographic primitives SEED relies on,
// exactly as the paper's prototype does: 128-EEA2 confidentiality and
// 128-EIA2 integrity (TS 33.401 Annex B, i.e. AES-CTR and AES-CMAC), the
// Milenage authentication-and-key-agreement functions f1–f5* (TS 35.206)
// used for 5G-AKA between SIM and core, and a counter-protected secure
// envelope that SEED wraps its diagnosis payloads in before embedding them
// in AUTH or DNN fields.
//
// Every primitive has a keyed form (CMACKey, EIA2Key, EEA2Key) that caches
// the expanded AES block and derived subkeys at construction: NAS security
// contexts and envelopes authenticate and encrypt thousands of messages
// under one key per simulated UE, so re-deriving per message made the
// crypto the second-hottest allocation site after the event kernel. The
// keyed forms are plain values (SetKey keys one in place) whose expanded
// part is immutable, so their holders embed them and copies share it.
package crypto5g

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/subtle"
	"encoding/binary"
	"fmt"
)

// CMACKey is a reusable AES-CMAC state: the expanded AES block plus the
// RFC 4493 subkeys K1/K2, derived once per key. Sum is allocation-free.
//
// The expanded block and the subkeys never change after SetKey, so a copy
// of a CMACKey shares them with the original and gets scratch blocks of
// its own: holders keep their keys by value, and two holders of the same
// key (the two ends of a NAS association) need one expansion between them.
// One CMACKey value is not safe for concurrent use.
type CMACKey struct {
	block  cipher.Block
	k1, k2 [16]byte
	// x is the running CBC state and buf the block being gathered. They
	// live on the struct because locals passed through the cipher.Block
	// interface call escape to the heap; as fields they cost nothing per
	// call.
	x, buf [16]byte
}

// NewCMACKey expands the 16-byte key and precomputes the CMAC subkeys.
func NewCMACKey(key []byte) (*CMACKey, error) {
	c := new(CMACKey)
	if err := c.SetKey(key); err != nil {
		return nil, err
	}
	return c, nil
}

// SetKey keys c in place: the form for a CMACKey held by value.
func (c *CMACKey) SetKey(key []byte) error {
	block, err := aes.NewCipher(key)
	if err != nil {
		return fmt.Errorf("crypto5g: cmac key: %w", err)
	}
	c.block = block
	c.buf = [16]byte{}
	block.Encrypt(c.buf[:], c.buf[:])
	c.k1 = dbl(c.buf)
	c.k2 = dbl(c.k1)
	return nil
}

// Sum computes the AES-CMAC (RFC 4493 / NIST SP 800-38B) of msg. The
// returned tag is 16 bytes; no heap allocation occurs.
func (c *CMACKey) Sum(msg []byte) [16]byte { return c.Sum2(nil, msg) }

// Sum2 computes the AES-CMAC of head followed by msg without joining them:
// a caller that authenticates a message behind a header it composes (EIA2's
// COUNT||BEARER||DIRECTION prefix) passes the two where they are. Neither
// slice is retained or written.
func (c *CMACKey) Sum2(head, msg []byte) [16]byte {
	c.x = [16]byte{}
	n := c.absorb(head, 0)
	n = c.absorb(msg, n)
	// buf holds the final block: complete (n == 16) or to be padded.
	last := &c.k1
	if n < 16 {
		c.buf[n] = 0x80
		clear(c.buf[n+1:])
		last = &c.k2
	}
	xorBlock(&c.buf, last[:])
	c.mix(c.buf[:])
	return c.x
}

// absorb feeds p into the CBC chain behind the n bytes already gathered in
// buf and returns the new fill. A block is chained only once a byte beyond
// it is known to exist, so the message's last block (1 to 16 bytes; none
// only for the empty message) is always left in buf for Sum2 to finish.
func (c *CMACKey) absorb(p []byte, n int) int {
	if len(p) == 0 {
		return n
	}
	if n > 0 {
		m := copy(c.buf[n:], p)
		n, p = n+m, p[m:]
		if len(p) == 0 {
			return n
		}
		c.mix(c.buf[:]) // buf is full and more follows
	}
	for len(p) > 16 {
		c.mix(p[:16]) // whole blocks straight from the caller's slice
		p = p[16:]
	}
	return copy(c.buf[:], p)
}

// mix chains one 16-byte block: x = E(x ^ b).
func (c *CMACKey) mix(b []byte) {
	xorBlock(&c.x, b)
	c.block.Encrypt(c.x[:], c.x[:])
}

// xorBlock sets x ^= b[:16], as two words.
func xorBlock(x *[16]byte, b []byte) {
	_ = b[15]
	binary.LittleEndian.PutUint64(x[0:8], binary.LittleEndian.Uint64(x[0:8])^binary.LittleEndian.Uint64(b[0:8]))
	binary.LittleEndian.PutUint64(x[8:16], binary.LittleEndian.Uint64(x[8:16])^binary.LittleEndian.Uint64(b[8:16]))
}

// CMAC computes the AES-CMAC of msg under the 16-byte key. The returned
// tag is 16 bytes. One-shot convenience; batch users should keep a
// CMACKey.
func CMAC(key, msg []byte) ([16]byte, error) {
	c, err := NewCMACKey(key)
	if err != nil {
		return [16]byte{}, err
	}
	return c.Sum(msg), nil
}

// dbl doubles a value in GF(2^128) per RFC 4493 subkey generation.
func dbl(in [16]byte) [16]byte {
	var out [16]byte
	carry := byte(0)
	for i := 15; i >= 0; i-- {
		out[i] = in[i]<<1 | carry
		carry = in[i] >> 7
	}
	if carry != 0 {
		out[15] ^= 0x87
	}
	return out
}

// ConstantTimeEqual compares two MACs without leaking timing.
func ConstantTimeEqual(a, b []byte) bool {
	return len(a) == len(b) && subtle.ConstantTimeCompare(a, b) == 1
}
