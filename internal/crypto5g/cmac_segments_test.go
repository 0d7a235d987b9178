package crypto5g

import (
	"bytes"
	"crypto/aes"
	"encoding/binary"
	"encoding/hex"
	"testing"
)

// cmacReference is RFC 4493 over one contiguous message, written from the
// RFC's pseudocode and sharing nothing with CMACKey: the oracle Sum2 and
// the two-segment EIA2 construction are held to.
func cmacReference(t testing.TB, key, msg []byte) [16]byte {
	t.Helper()
	block, err := aes.NewCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	shift := func(in [16]byte) (out [16]byte) {
		for i := 0; i < 16; i++ {
			out[i] = in[i] << 1
			if i < 15 {
				out[i] |= in[i+1] >> 7
			}
		}
		if in[0]&0x80 != 0 {
			out[15] ^= 0x87
		}
		return out
	}
	var l [16]byte
	block.Encrypt(l[:], l[:])
	k1 := shift(l)
	k2 := shift(k1)

	n := (len(msg) + 15) / 16
	var last [16]byte
	if n > 0 && len(msg)%16 == 0 {
		copy(last[:], msg[(n-1)*16:])
		for i := range last {
			last[i] ^= k1[i]
		}
	} else {
		if n == 0 {
			n = 1
		}
		rem := msg[(n-1)*16:]
		copy(last[:], rem)
		last[len(rem)] = 0x80
		for i := range last {
			last[i] ^= k2[i]
		}
	}
	var x [16]byte
	for b := 0; b < n-1; b++ {
		for i := range x {
			x[i] ^= msg[b*16+i]
		}
		block.Encrypt(x[:], x[:])
	}
	for i := range x {
		x[i] ^= last[i]
	}
	block.Encrypt(x[:], x[:])
	return x
}

// eia2Reference is the construction EIA2Key.MAC replaced: the 8-byte
// COUNT||BEARER||DIRECTION header and the message copied into one buffer,
// CMAC over that, first four bytes.
func eia2Reference(t testing.TB, key []byte, count uint32, bearer uint8, dir Direction, msg []byte) [4]byte {
	m := make([]byte, 8+len(msg))
	binary.BigEndian.PutUint32(m[0:4], count)
	m[4] = bearer<<3 | byte(dir)<<2
	copy(m[8:], msg)
	tag := cmacReference(t, key, m)
	return [4]byte(tag[:4])
}

// checkSegments holds one (key, head, msg) triple to every identity the
// two-segment CMAC must keep.
func checkSegments(t testing.TB, key, head, msg []byte) {
	t.Helper()
	headIn, msgIn := bytes.Clone(head), bytes.Clone(msg)
	joined := append(bytes.Clone(head), msg...)
	want := cmacReference(t, key, joined)

	c, err := NewCMACKey(key)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Sum2(head, msg); got != want {
		t.Fatalf("Sum2(%d, %d bytes) = %x, want %x", len(head), len(msg), got, want)
	}
	if got := c.Sum(joined); got != want {
		t.Fatalf("Sum(%d bytes) = %x, want %x", len(joined), got, want)
	}
	if got := c.Sum2(joined, nil); got != want {
		t.Fatalf("Sum2(%d bytes, nil) = %x, want %x", len(joined), got, want)
	}
	// A copy shares the schedule and must not share the scratch: interleave.
	d := *c
	if a, b := d.Sum2(head, msg), c.Sum2(msg, head); a != want || b != cmacReference(t, key, append(bytes.Clone(msg), head...)) {
		t.Fatalf("a copied key disagrees with its original (%d, %d bytes)", len(head), len(msg))
	}
	if !bytes.Equal(head, headIn) || !bytes.Equal(msg, msgIn) {
		t.Fatal("Sum2 wrote to its input")
	}

	// EIA2 with a header drawn from head's bytes.
	var h [6]byte
	copy(h[:], head)
	count, bearer, dir := binary.BigEndian.Uint32(h[0:4]), h[4]&0x1F, Direction(h[5]&1)
	k, err := NewEIA2Key(key)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := k.MAC(count, bearer, dir, msg), eia2Reference(t, key, count, bearer, dir, msg); got != want {
		t.Fatalf("EIA2 MAC(count %#x bearer %d dir %d, %d bytes) = %x, want %x", count, bearer, dir, len(msg), got, want)
	}
}

// TestCMACSegmentsTable walks every split around the block boundaries: the
// head from nothing to a block and a byte, the message from nothing to
// three blocks and a byte.
func TestCMACSegmentsTable(t *testing.T) {
	key := mustHex(t, "2b7e151628aed2a6abf7158809cf4f3c")
	pool := make([]byte, 17+49)
	for i := range pool {
		pool[i] = byte(i*7 + 3)
	}
	for h := 0; h <= 17; h++ {
		for m := 0; m <= 49; m++ {
			checkSegments(t, key, pool[:h], pool[17:17+m])
		}
	}
}

// TestCMACSegmentsRFC4493 splits the RFC's own messages at every offset.
func TestCMACSegmentsRFC4493(t *testing.T) {
	key := mustHex(t, "2b7e151628aed2a6abf7158809cf4f3c")
	msg := mustHex(t, "6bc1bee22e409f96e93d7e117393172a"+
		"ae2d8a571e03ac9c9eb76fac45af8e51"+
		"30c81c46a35ce411e5fbc1191a0a52ef"+
		"f69f2445df4f9b17ad2b417be66c3710")
	c, err := NewCMACKey(key)
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range []struct {
		mlen int
		want string
	}{
		{0, "bb1d6929e95937287fa37d129b756746"},
		{16, "070a16b46b4d4144f79bdd9dd04a287c"},
		{40, "dfa66747de9ae63030ca32611497c827"},
		{64, "51f0bebf7e3b9d92fc49741779363cfe"},
	} {
		for cut := 0; cut <= tt.mlen; cut++ {
			if got := c.Sum2(msg[:cut], msg[cut:tt.mlen]); hex.EncodeToString(got[:]) != tt.want {
				t.Errorf("Sum2 of the %d-byte vector split at %d = %x, want %s", tt.mlen, cut, got, tt.want)
			}
		}
	}
}

// TestEIA2TS33401Set2 is 128-EIA2 test set 2 of TS 33.401 Annex C.2, the
// set whose message is a whole number of bytes (the others are 58, 254,
// 511 … bits long, and this API authenticates bytes).
func TestEIA2TS33401Set2(t *testing.T) {
	key := mustHex(t, "d3c5d592327fb11c4035c6680af8c6d1")
	msg := mustHex(t, "484583d5afe082ae")
	mac, err := EIA2(key, 0x398a59b4, 0x1a, Downlink, msg)
	if err != nil {
		t.Fatal(err)
	}
	if hex.EncodeToString(mac[:]) != "b93787e6" {
		t.Fatalf("MAC-I = %x, want b93787e6", mac)
	}
	if ref := eia2Reference(t, key, 0x398a59b4, 0x1a, Downlink, msg); ref != mac {
		t.Fatalf("reference construction = %x, MAC = %x", ref, mac)
	}
}

// TestEIA2KeyHoldsNoMessageBuffer pins what the two-segment CMAC bought:
// the key's size does not depend on the messages it has authenticated, and
// MAC allocates nothing from the first call on.
func TestEIA2KeyHoldsNoMessageBuffer(t *testing.T) {
	k, err := NewEIA2Key(benchKey)
	if err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 4096)
	if n := testing.AllocsPerRun(10, func() { k.MAC(7, 1, Uplink, big) }); n != 0 {
		t.Fatalf("MAC over a 4 KB message allocates %.0f objects", n)
	}
}

// FuzzCMACSegments holds arbitrary keys and splits to checkSegments. The
// key is the first 16 bytes of its argument, zero-padded.
func FuzzCMACSegments(f *testing.F) {
	f.Add([]byte("0123456789abcdef"), []byte{0, 0, 0, 1, 0x0c, 0, 0, 0}, []byte("a NAS message"))
	f.Add([]byte{}, []byte{}, []byte{})
	f.Add(benchKey, benchMsg[:16], benchMsg[16:32])
	f.Add(benchKey, benchMsg[:17], benchMsg[:15])
	f.Add(benchKey, benchMsg[:8], benchMsg[:56])
	f.Fuzz(func(t *testing.T, keyIn, head, msg []byte) {
		var key [16]byte
		copy(key[:], keyIn)
		checkSegments(t, key[:], head, msg)
	})
}
