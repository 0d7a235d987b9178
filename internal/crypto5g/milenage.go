package crypto5g

import (
	"crypto/aes"
	"crypto/cipher"
	"fmt"
)

// Milenage implements the 3GPP authentication and key generation functions
// f1, f1*, f2, f3, f4, f5 and f5* (TS 35.205/35.206) used by 5G-AKA.
// The SIM holds K and OPc; the home network (UDM in 5G) holds the same and
// runs the complementary side.
type Milenage struct {
	k   [16]byte
	opc [16]byte
	// block is the AES cipher expanded from K once at construction; every
	// f-function reuses it instead of re-running the key schedule (three
	// aes.NewCipher calls per authentication before caching).
	block cipher.Block
	// s1 and s2 are the f-functions' scratch blocks: locals passed through
	// the cipher.Block interface call escape to the heap, fields don't.
	// Callers receive results by value, so the scratch never leaks.
	s1, s2 [16]byte
}

// NewMilenage builds a Milenage instance from the subscriber key K and the
// operator code OP (not OPc; OPc is derived as E_K(OP) XOR OP).
func NewMilenage(k, op []byte) (*Milenage, error) {
	if len(k) != 16 || len(op) != 16 {
		return nil, fmt.Errorf("crypto5g: milenage requires 16-byte K and OP, got %d and %d", len(k), len(op))
	}
	m := &Milenage{}
	copy(m.k[:], k)
	block, err := aes.NewCipher(k)
	if err != nil {
		return nil, err
	}
	m.block = block
	block.Encrypt(m.opc[:], op)
	for i := range m.opc {
		m.opc[i] ^= op[i]
	}
	return m, nil
}

// OPc returns the derived operator code.
func (m *Milenage) OPc() [16]byte { return m.opc }

func (m *Milenage) temp(rand [16]byte) [16]byte {
	t := &m.s1
	for i := range t {
		t[i] = rand[i] ^ m.opc[i]
	}
	m.block.Encrypt(t[:], t[:])
	return *t
}

// rotXorEncrypt computes E_K(rot(temp XOR OPc, rBytes) XOR c) XOR OPc for
// f2..f5*, where the rotation is a left byte rotation.
func (m *Milenage) rotXorEncrypt(temp [16]byte, rBytes int, cLast byte) [16]byte {
	in, out := &m.s1, &m.s2
	for i := range in {
		in[i] = temp[(i+rBytes)%16] ^ m.opc[(i+rBytes)%16]
	}
	in[15] ^= cLast
	m.block.Encrypt(out[:], in[:])
	for i := range out {
		out[i] ^= m.opc[i]
	}
	return *out
}

// F1 computes the network authentication code MAC-A and the
// resynchronisation code MAC-S for the given RAND, SQN (48-bit) and AMF.
func (m *Milenage) F1(rand [16]byte, sqn uint64, amf [2]byte) (macA, macS [8]byte) {
	return m.out1(m.temp(rand), sqn, amf)
}

// out1 computes OUT1 = E_K(TEMP XOR rot(IN1 XOR OPc, r1) XOR c1) XOR OPc,
// r1 = 64 bits, and splits it into MAC-A and MAC-S.
func (m *Milenage) out1(temp [16]byte, sqn uint64, amf [2]byte) (macA, macS [8]byte) {
	var in1 [16]byte
	putSQN(in1[0:6], sqn)
	copy(in1[6:8], amf[:])
	putSQN(in1[8:14], sqn)
	copy(in1[14:16], amf[:])

	const r1 = 8
	x, out1 := &m.s1, &m.s2
	for i := range x {
		x[i] = temp[i] ^ in1[(i+r1)%16] ^ m.opc[(i+r1)%16]
	}
	m.block.Encrypt(out1[:], x[:])
	for i := range out1 {
		out1[i] ^= m.opc[i]
	}
	copy(macA[:], out1[0:8])
	copy(macS[:], out1[8:16])
	return macA, macS
}

// F2345 computes RES (f2), CK (f3), IK (f4) and AK (f5) for RAND.
func (m *Milenage) F2345(rand [16]byte) (res [8]byte, ck, ik [16]byte, ak [6]byte) {
	temp := m.temp(rand)
	out2 := m.rotXorEncrypt(temp, 0, 1) // r2 = 0, c2 = ...01
	out3 := m.rotXorEncrypt(temp, 4, 2) // r3 = 32 bits, c3 = ...02
	out4 := m.rotXorEncrypt(temp, 8, 4) // r4 = 64 bits, c4 = ...04
	copy(res[:], out2[8:16])
	copy(ak[:], out2[0:6])
	ck = out3
	ik = out4
	return
}

// F5Star computes the resynchronisation anonymity key AK* (f5*).
func (m *Milenage) F5Star(rand [16]byte) (ak [6]byte) {
	temp := m.temp(rand)
	out5 := m.rotXorEncrypt(temp, 12, 8) // r5 = 96 bits, c5 = ...08
	copy(ak[:], out5[0:6])
	return
}

// Challenge is Milenage bound to one RAND. TEMP = E_K(RAND XOR OPc), which
// every f-function starts from, is computed once when the challenge is
// made, so each output costs one more AES block: an authentication that
// takes each output block once — the card's successful one reads OUT2 for
// AK and RES, OUT1, OUT3 and OUT4 — costs five blocks, where calling F1,
// F2345 and F5Star recomputes TEMP for each. Its outputs are theirs.
type Challenge struct {
	m    *Milenage
	temp [16]byte
}

// Challenge derives TEMP for rand.
func (m *Milenage) Challenge(rand [16]byte) Challenge {
	return Challenge{m: m, temp: m.temp(rand)}
}

// F1 computes MAC-A and MAC-S for sqn and amf, as Milenage.F1.
func (c Challenge) F1(sqn uint64, amf [2]byte) (macA, macS [8]byte) {
	return c.m.out1(c.temp, sqn, amf)
}

// F25 computes RES (f2) and AK (f5), the two halves of OUT2.
func (c Challenge) F25() (res [8]byte, ak [6]byte) {
	out2 := c.m.rotXorEncrypt(c.temp, 0, 1)
	copy(res[:], out2[8:16])
	copy(ak[:], out2[0:6])
	return res, ak
}

// F3 computes CK.
func (c Challenge) F3() (ck [16]byte) { return c.m.rotXorEncrypt(c.temp, 4, 2) }

// F4 computes IK.
func (c Challenge) F4() (ik [16]byte) { return c.m.rotXorEncrypt(c.temp, 8, 4) }

// F5Star computes AK*, as Milenage.F5Star.
func (c Challenge) F5Star() (ak [6]byte) {
	out5 := c.m.rotXorEncrypt(c.temp, 12, 8)
	copy(ak[:], out5[0:6])
	return ak
}

func putSQN(dst []byte, sqn uint64) {
	dst[0] = byte(sqn >> 40)
	dst[1] = byte(sqn >> 32)
	dst[2] = byte(sqn >> 24)
	dst[3] = byte(sqn >> 16)
	dst[4] = byte(sqn >> 8)
	dst[5] = byte(sqn)
}

// SQNFromBytes decodes a 48-bit sequence number.
func SQNFromBytes(b []byte) uint64 {
	return uint64(b[0])<<40 | uint64(b[1])<<32 | uint64(b[2])<<24 |
		uint64(b[3])<<16 | uint64(b[4])<<8 | uint64(b[5])
}

// AUTN assembles the authentication token SQN⊕AK || AMF || MAC-A sent in
// an Authentication Request.
func AUTN(sqn uint64, ak [6]byte, amf [2]byte, macA [8]byte) [16]byte {
	var autn [16]byte
	putSQN(autn[0:6], sqn)
	for i := 0; i < 6; i++ {
		autn[i] ^= ak[i]
	}
	copy(autn[6:8], amf[:])
	copy(autn[8:16], macA[:])
	return autn
}

// AUTS assembles the resynchronisation token SQN_MS⊕AK* || MAC-S returned
// by the SIM in an Authentication Failure (Synch failure). SEED reuses this
// very message as the ACK for diagnosis delivery (Fig 7a).
func AUTS(sqnMS uint64, akStar [6]byte, macS [8]byte) [14]byte {
	var auts [14]byte
	putSQN(auts[0:6], sqnMS)
	for i := 0; i < 6; i++ {
		auts[i] ^= akStar[i]
	}
	copy(auts[6:14], macS[:])
	return auts
}
