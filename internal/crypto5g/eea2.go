package crypto5g

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"fmt"
)

// Direction of a protected message, per TS 33.401.
type Direction uint8

const (
	// Uplink is device→network.
	Uplink Direction = 0
	// Downlink is network→device.
	Downlink Direction = 1
)

// EEA2Key is a reusable 128-EEA2 state holding the expanded AES block.
// XORKeyStream runs AES-CTR with the TS 33.401 B.1.3 counter layout
// without allocating. A value type like CMACKey: a copy shares the
// expanded block and has its own scratch. Not safe for concurrent use.
type EEA2Key struct {
	block cipher.Block
	// ctr and ks are XORKeyStream's counter and keystream blocks. Struct
	// fields rather than locals: locals passed through the cipher.Block
	// interface call escape to the heap on every call.
	ctr, ks [16]byte
}

// NewEEA2Key expands the 16-byte confidentiality key.
func NewEEA2Key(key []byte) (*EEA2Key, error) {
	k := new(EEA2Key)
	if err := k.SetKey(key); err != nil {
		return nil, err
	}
	return k, nil
}

// SetKey keys k in place: the form for an EEA2Key held by value.
func (k *EEA2Key) SetKey(key []byte) error {
	block, err := aes.NewCipher(key)
	if err != nil {
		return fmt.Errorf("crypto5g: eea2 key: %w", err)
	}
	k.block = block
	return nil
}

// XORKeyStream applies the 128-EEA2 keystream for (count, bearer, dir) to
// src, writing the result to dst. dst and src must have the same length
// and may be the same slice (in-place). Encryption and decryption are the
// same operation.
func (k *EEA2Key) XORKeyStream(count uint32, bearer uint8, dir Direction, dst, src []byte) {
	if len(dst) != len(src) {
		panic("crypto5g: eea2 dst/src length mismatch")
	}
	ctr, ks := &k.ctr, &k.ks
	*ctr = [16]byte{}
	binary.BigEndian.PutUint32(ctr[0:4], count)
	ctr[4] = bearer<<3 | byte(dir)<<2 // BEARER(5) | DIRECTION(1) | 00
	for off := 0; off < len(src); off += 16 {
		k.block.Encrypt(ks[:], ctr[:])
		n := len(src) - off
		if n > 16 {
			n = 16
		}
		for i := 0; i < n; i++ {
			dst[off+i] = src[off+i] ^ ks[i]
		}
		// Increment the counter block big-endian (CTR mode).
		for i := 15; i >= 0; i-- {
			ctr[i]++
			if ctr[i] != 0 {
				break
			}
		}
	}
}

// EEA2 applies the 128-EEA2 confidentiality algorithm (AES-128 in CTR mode
// with the TS 33.401 B.1.3 counter block layout) to data in place of a new
// slice. Encryption and decryption are the same operation.
//
// count is the 32-bit NAS COUNT, bearer the 5-bit bearer identity.
func EEA2(key []byte, count uint32, bearer uint8, dir Direction, data []byte) ([]byte, error) {
	k, err := NewEEA2Key(key)
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(data))
	k.XORKeyStream(count, bearer, dir, out, data)
	return out, nil
}

// EIA2Key is a reusable 128-EIA2 state: a CMACKey. MAC is allocation-free
// and copies nothing: the COUNT||BEARER||DIRECTION prefix and the message
// go to the CMAC as two segments. A value type like CMACKey. Not safe for
// concurrent use.
type EIA2Key struct {
	cmac CMACKey
}

// NewEIA2Key expands the 16-byte integrity key.
func NewEIA2Key(key []byte) (*EIA2Key, error) {
	k := new(EIA2Key)
	if err := k.SetKey(key); err != nil {
		return nil, err
	}
	return k, nil
}

// SetKey keys k in place: the form for an EIA2Key held by value.
func (k *EIA2Key) SetKey(key []byte) error { return k.cmac.SetKey(key) }

// MAC computes the 128-EIA2 integrity tag (TS 33.401 B.2.3): AES-CMAC over
// COUNT || BEARER||DIRECTION || 0-pad || message, truncated to 4 bytes as
// the standard MAC-I.
func (k *EIA2Key) MAC(count uint32, bearer uint8, dir Direction, msg []byte) [4]byte {
	var head [8]byte
	binary.BigEndian.PutUint32(head[0:4], count)
	head[4] = bearer<<3 | byte(dir)<<2
	tag := k.cmac.Sum2(head[:], msg)
	return [4]byte(tag[:4])
}

// EIA2 computes the 128-EIA2 tag under key. One-shot convenience; batch
// users should keep an EIA2Key.
func EIA2(key []byte, count uint32, bearer uint8, dir Direction, msg []byte) ([4]byte, error) {
	k, err := NewEIA2Key(key)
	if err != nil {
		return [4]byte{}, err
	}
	return k.MAC(count, bearer, dir, msg), nil
}
