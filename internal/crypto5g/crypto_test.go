package crypto5g

import (
	"bytes"
	"encoding/hex"
	mrand "math/rand"
	"testing"
	"testing/quick"
)

func mustHex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatalf("bad hex %q: %v", s, err)
	}
	return b
}

// RFC 4493 §4 official AES-CMAC test vectors.
func TestCMACRFC4493Vectors(t *testing.T) {
	key := "2b7e151628aed2a6abf7158809cf4f3c"
	msg := "6bc1bee22e409f96e93d7e117393172a" +
		"ae2d8a571e03ac9c9eb76fac45af8e51" +
		"30c81c46a35ce411e5fbc1191a0a52ef" +
		"f69f2445df4f9b17ad2b417be66c3710"
	tests := []struct {
		mlen int // bytes of msg used
		want string
	}{
		{0, "bb1d6929e95937287fa37d129b756746"},
		{16, "070a16b46b4d4144f79bdd9dd04a287c"},
		{40, "dfa66747de9ae63030ca32611497c827"},
		{64, "51f0bebf7e3b9d92fc49741779363cfe"},
	}
	k := mustHex(t, key)
	m := mustHex(t, msg)
	for _, tt := range tests {
		got, err := CMAC(k, m[:tt.mlen])
		if err != nil {
			t.Fatal(err)
		}
		if hex.EncodeToString(got[:]) != tt.want {
			t.Errorf("CMAC(%d bytes) = %x, want %s", tt.mlen, got, tt.want)
		}
	}
}

func TestCMACRejectsBadKey(t *testing.T) {
	if _, err := CMAC([]byte("short"), nil); err == nil {
		t.Fatal("CMAC accepted a 5-byte key")
	}
}

// TS 35.207/35.208 Milenage test set 1.
func TestMilenageTestSet1(t *testing.T) {
	k := mustHex(t, "465b5ce8b199b49faa5f0a2ee238a6bc")
	op := mustHex(t, "cdc202d5123e20f62b6d676ac72cb318")
	randBytes := mustHex(t, "23553cbe9637a89d218ae64dae47bf35")
	sqn := uint64(0xff9bb4d0b607)
	amf := [2]byte{0xb9, 0xb9}

	m, err := NewMilenage(k, op)
	if err != nil {
		t.Fatal(err)
	}
	opc := m.OPc()
	if hex.EncodeToString(opc[:]) != "cd63cb71954a9f4e48a5994e37a02baf" {
		t.Fatalf("OPc = %x", opc)
	}
	var rnd [16]byte
	copy(rnd[:], randBytes)
	macA, macS := m.F1(rnd, sqn, amf)
	if hex.EncodeToString(macA[:]) != "4a9ffac354dfafb3" {
		t.Errorf("MAC-A = %x", macA)
	}
	if hex.EncodeToString(macS[:]) != "01cfaf9ec4e871e9" {
		t.Errorf("MAC-S = %x", macS)
	}
	res, ck, ik, ak := m.F2345(rnd)
	if hex.EncodeToString(res[:]) != "a54211d5e3ba50bf" {
		t.Errorf("RES = %x", res)
	}
	if hex.EncodeToString(ck[:]) != "b40ba9a3c58b2a05bbf0d987b21bf8cb" {
		t.Errorf("CK = %x", ck)
	}
	if hex.EncodeToString(ik[:]) != "f769bcd751044604127672711c6d3441" {
		t.Errorf("IK = %x", ik)
	}
	if hex.EncodeToString(ak[:]) != "aa689c648370" {
		t.Errorf("AK = %x", ak)
	}
	akStar := m.F5Star(rnd)
	if hex.EncodeToString(akStar[:]) != "451e8beca43b" {
		t.Errorf("AK* = %x", akStar)
	}
}

// TestMilenageChallengeMatches: the one-TEMP form the SIM and the UDM
// authenticate with yields F1's, F2345's and F5Star's outputs byte for
// byte, on test set 1 and on 1 000 generated (K, OP, RAND, SQN, AMF).
func TestMilenageChallengeMatches(t *testing.T) {
	check := func(k, op []byte, rnd [16]byte, sqn uint64, amf [2]byte) {
		t.Helper()
		m, err := NewMilenage(k, op)
		if err != nil {
			t.Fatal(err)
		}
		macA, macS := m.F1(rnd, sqn, amf)
		res, ck, ik, ak := m.F2345(rnd)
		akStar := m.F5Star(rnd)
		// Read the challenge's outputs in the card's order, and F1 twice
		// as a resynchronisation does, with the functions' calls between.
		ch := m.Challenge(rnd)
		gotRES, gotAK := ch.F25()
		m.F2345(rnd)
		gotA, gotS := ch.F1(sqn, amf)
		gotCK, gotIK, gotAKStar := ch.F3(), ch.F4(), ch.F5Star()
		_, gotS2 := ch.F1(sqn^1, amf)
		if _, wantS2 := m.F1(rnd, sqn^1, amf); gotS2 != wantS2 {
			t.Fatalf("K %x RAND %x: second F1's MAC-S %x, want %x", k, rnd, gotS2, wantS2)
		}
		if gotA != macA || gotS != macS || gotRES != res || gotCK != ck || gotIK != ik || gotAK != ak || gotAKStar != akStar {
			t.Fatalf("K %x OP %x RAND %x SQN %x AMF %x: challenge gives %x %x %x %x %x %x %x, functions %x %x %x %x %x %x %x",
				k, op, rnd, sqn, amf, gotA, gotS, gotRES, gotCK, gotIK, gotAK, gotAKStar, macA, macS, res, ck, ik, ak, akStar)
		}
	}
	var rnd [16]byte
	copy(rnd[:], mustHex(t, "23553cbe9637a89d218ae64dae47bf35"))
	check(mustHex(t, "465b5ce8b199b49faa5f0a2ee238a6bc"), mustHex(t, "cdc202d5123e20f62b6d676ac72cb318"), rnd, 0xff9bb4d0b607, [2]byte{0xb9, 0xb9})

	rng := mrand.New(mrand.NewSource(1))
	for i := 0; i < 1000; i++ {
		k, op := make([]byte, 16), make([]byte, 16)
		rng.Read(k)
		rng.Read(op)
		rng.Read(rnd[:])
		var amf [2]byte
		rng.Read(amf[:])
		check(k, op, rnd, uint64(rng.Int63())&(1<<48-1), amf)
	}
}

func TestMilenageKeyLengthValidation(t *testing.T) {
	if _, err := NewMilenage(make([]byte, 15), make([]byte, 16)); err == nil {
		t.Fatal("accepted 15-byte K")
	}
	if _, err := NewMilenage(make([]byte, 16), make([]byte, 8)); err == nil {
		t.Fatal("accepted 8-byte OP")
	}
}

func TestAUTNRoundTrip(t *testing.T) {
	k := mustHex(t, "465b5ce8b199b49faa5f0a2ee238a6bc")
	op := mustHex(t, "cdc202d5123e20f62b6d676ac72cb318")
	m, _ := NewMilenage(k, op)
	var rnd [16]byte
	copy(rnd[:], mustHex(t, "23553cbe9637a89d218ae64dae47bf35"))
	sqn := uint64(0x0000000012345)
	amf := [2]byte{0x80, 0x00}
	macA, _ := m.F1(rnd, sqn, amf)
	_, _, _, ak := m.F2345(rnd)
	autn := AUTN(sqn, ak, amf, macA)

	// The SIM side: recover SQN by XORing AK back, verify MAC-A.
	var sqnBytes [6]byte
	copy(sqnBytes[:], autn[0:6])
	for i := 0; i < 6; i++ {
		sqnBytes[i] ^= ak[i]
	}
	if got := SQNFromBytes(sqnBytes[:]); got != sqn {
		t.Fatalf("recovered SQN %x, want %x", got, sqn)
	}
	wantMac, _ := m.F1(rnd, sqn, amf)
	if !bytes.Equal(autn[8:16], wantMac[:]) {
		t.Fatal("MAC-A in AUTN does not verify")
	}
}

func TestAUTSLayout(t *testing.T) {
	var ak [6]byte
	copy(ak[:], mustHex(t, "451e8beca43b"))
	var macS [8]byte
	copy(macS[:], mustHex(t, "01cfaf9ec4e871e9"))
	sqnMS := uint64(0xff9bb4d0b607)
	auts := AUTS(sqnMS, ak, macS)
	var sqnBytes [6]byte
	copy(sqnBytes[:], auts[0:6])
	for i := 0; i < 6; i++ {
		sqnBytes[i] ^= ak[i]
	}
	if SQNFromBytes(sqnBytes[:]) != sqnMS {
		t.Fatal("AUTS does not conceal/reveal SQN_MS correctly")
	}
	if !bytes.Equal(auts[6:14], macS[:]) {
		t.Fatal("AUTS MAC-S misplaced")
	}
}

func TestEEA2RoundTrip(t *testing.T) {
	key := mustHex(t, "d3c5d592327fb11c4035c6680af8c6d1")
	pt := []byte("SEED diagnosis payload: cause #91 suggested DNN internet2")
	ct, err := EEA2(key, 0x398a59b4, 0x15, Downlink, pt)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(ct, pt) {
		t.Fatal("ciphertext equals plaintext")
	}
	back, err := EEA2(key, 0x398a59b4, 0x15, Downlink, ct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, pt) {
		t.Fatal("EEA2 roundtrip failed")
	}
	// Different COUNT must give a different keystream.
	ct2, _ := EEA2(key, 0x398a59b5, 0x15, Downlink, pt)
	if bytes.Equal(ct, ct2) {
		t.Fatal("keystream does not depend on COUNT")
	}
	// Different direction must give a different keystream.
	ct3, _ := EEA2(key, 0x398a59b4, 0x15, Uplink, pt)
	if bytes.Equal(ct, ct3) {
		t.Fatal("keystream does not depend on DIRECTION")
	}
}

func TestEIA2ConstructionMatchesManualCMAC(t *testing.T) {
	key := mustHex(t, "2bd6459f82c5b300952c49104881ff48")
	msg := []byte{0x33, 0x32, 0x34, 0x62, 0x63, 0x39, 0x38}
	count := uint32(0x38a6f056)
	bearer := uint8(0x18)
	mac, err := EIA2(key, count, bearer, Downlink, msg)
	if err != nil {
		t.Fatal(err)
	}
	manual := make([]byte, 8+len(msg))
	manual[0], manual[1], manual[2], manual[3] = 0x38, 0xa6, 0xf0, 0x56
	manual[4] = bearer<<3 | 1<<2
	copy(manual[8:], msg)
	full, _ := CMAC(key, manual)
	if !bytes.Equal(mac[:], full[:4]) {
		t.Fatalf("EIA2 = %x, manual CMAC prefix = %x", mac, full[:4])
	}
}

func TestEnvelopeSealOpen(t *testing.T) {
	ek := mustHex(t, "000102030405060708090a0b0c0d0e0f")
	ik := mustHex(t, "f0e0d0c0b0a090807060504030201000")
	sender, _ := NewEnvelope(ek, ik, 7)
	receiver, _ := NewEnvelope(ek, ik, 7)

	for i := 0; i < 5; i++ {
		pt := []byte{byte(i), 0xAA, 0xBB}
		sealed, err := sender.Seal(Downlink, pt)
		if err != nil {
			t.Fatal(err)
		}
		if len(sealed) != len(pt)+EnvelopeOverhead {
			t.Fatalf("sealed length %d, want %d", len(sealed), len(pt)+EnvelopeOverhead)
		}
		got, err := receiver.Open(Downlink, sealed)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, pt) {
			t.Fatalf("roundtrip %d: got %x want %x", i, got, pt)
		}
	}
}

func TestEnvelopeDetectsTamper(t *testing.T) {
	ek := mustHex(t, "000102030405060708090a0b0c0d0e0f")
	sender, _ := NewEnvelope(ek, ek, 1)
	receiver, _ := NewEnvelope(ek, ek, 1)
	sealed, _ := sender.Seal(Uplink, []byte("report"))
	sealed[5] ^= 0x01
	if _, err := receiver.Open(Uplink, sealed); err != ErrIntegrity {
		t.Fatalf("tampered open err = %v, want ErrIntegrity", err)
	}
}

func TestEnvelopeDetectsReplay(t *testing.T) {
	ek := mustHex(t, "000102030405060708090a0b0c0d0e0f")
	sender, _ := NewEnvelope(ek, ek, 1)
	receiver, _ := NewEnvelope(ek, ek, 1)
	sealed, _ := sender.Seal(Uplink, []byte("report"))
	if _, err := receiver.Open(Uplink, sealed); err != nil {
		t.Fatal(err)
	}
	if _, err := receiver.Open(Uplink, sealed); err != ErrReplay {
		t.Fatalf("replayed open err = %v, want ErrReplay", err)
	}
}

func TestEnvelopeDirectionsIndependent(t *testing.T) {
	ek := mustHex(t, "000102030405060708090a0b0c0d0e0f")
	a, _ := NewEnvelope(ek, ek, 1)
	b, _ := NewEnvelope(ek, ek, 1)
	s1, _ := a.Seal(Uplink, []byte("up"))
	s2, _ := a.Seal(Downlink, []byte("down"))
	if _, err := b.Open(Downlink, s2); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Open(Uplink, s1); err != nil {
		t.Fatal(err)
	}
}

func TestEnvelopeRejectsShort(t *testing.T) {
	ek := mustHex(t, "000102030405060708090a0b0c0d0e0f")
	e, _ := NewEnvelope(ek, ek, 1)
	if _, err := e.Open(Uplink, []byte{1, 2, 3}); err == nil {
		t.Fatal("opened a 3-byte message")
	}
}

func TestEnvelopeKeyValidation(t *testing.T) {
	if _, err := NewEnvelope([]byte("short"), make([]byte, 16), 1); err == nil {
		t.Fatal("accepted short enc key")
	}
	if _, err := NewEnvelope(make([]byte, 16), []byte("short"), 1); err == nil {
		t.Fatal("accepted short int key")
	}
}

// Property: seal/open roundtrips for arbitrary payloads, and any single-bit
// flip in the sealed bytes is rejected.
func TestPropertyEnvelopeRoundTrip(t *testing.T) {
	ek := mustHex(t, "00112233445566778899aabbccddeeff")
	f := func(payload []byte, flipByte uint8, flipBit uint8) bool {
		s, _ := NewEnvelope(ek, ek, 3)
		r, _ := NewEnvelope(ek, ek, 3)
		sealed, err := s.Seal(Downlink, payload)
		if err != nil {
			return false
		}
		tampered := append([]byte(nil), sealed...)
		tampered[int(flipByte)%len(tampered)] ^= 1 << (flipBit % 8)
		if _, err := r.Open(Downlink, tampered); err == nil {
			// A counter-field flip could in principle still verify only if
			// MAC collides; with 4-byte MACs treat success as failure.
			return false
		}
		got, err := r.Open(Downlink, sealed)
		return err == nil && bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestConstantTimeEqual(t *testing.T) {
	if !ConstantTimeEqual([]byte{1, 2}, []byte{1, 2}) {
		t.Fatal("equal slices compared unequal")
	}
	if ConstantTimeEqual([]byte{1, 2}, []byte{1, 3}) {
		t.Fatal("unequal slices compared equal")
	}
	if ConstantTimeEqual([]byte{1}, []byte{1, 2}) {
		t.Fatal("length mismatch compared equal")
	}
}
