package nas

import (
	"bytes"
	"testing"
	"testing/quick"

	"github.com/seed5g/seed/internal/cause"
	"github.com/seed5g/seed/internal/crypto5g"
)

func secPair() (*SecurityContext, *SecurityContext) {
	var ik [16]byte
	copy(ik[:], "integrity-key-01")
	return NewSecurityContext(ik), NewSecurityContext(ik)
}

func TestProtectUnprotectRoundTrip(t *testing.T) {
	ue, amf := secPair()
	msg := Marshal(&RegistrationReject{Cause: cause.MMPLMNNotAllowed})

	for i := 0; i < 5; i++ {
		wire := ue.Protect(crypto5g.Uplink, msg)
		if !IsProtected(wire) {
			t.Fatal("envelope not detected")
		}
		plain, err := amf.Unprotect(crypto5g.Uplink, wire)
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		if !bytes.Equal(plain, msg) {
			t.Fatal("inner message corrupted")
		}
	}
	out, in := ue.Stats()
	if out != 5 || in != 0 {
		t.Fatalf("ue stats = %d/%d", out, in)
	}
	if _, in := amf.Stats(); in != 5 {
		t.Fatalf("amf verified = %d", in)
	}
}

func TestUnprotectRejectsTamper(t *testing.T) {
	ue, amf := secPair()
	wire := ue.Protect(crypto5g.Uplink, Marshal(&ServiceRequest{}))
	for _, idx := range []int{2, 6, len(wire) - 1} {
		bad := append([]byte(nil), wire...)
		bad[idx] ^= 0x01
		if _, err := amf.Unprotect(crypto5g.Uplink, bad); err == nil {
			t.Fatalf("tamper at byte %d accepted", idx)
		}
	}
	// Untampered still verifies after the failed attempts (count not
	// advanced by failures).
	if _, err := amf.Unprotect(crypto5g.Uplink, wire); err != nil {
		t.Fatalf("clean message rejected after tamper attempts: %v", err)
	}
}

func TestUnprotectRejectsReplay(t *testing.T) {
	ue, amf := secPair()
	w1 := ue.Protect(crypto5g.Uplink, Marshal(&ServiceRequest{}))
	w2 := ue.Protect(crypto5g.Uplink, Marshal(&ServiceRequest{}))
	if _, err := amf.Unprotect(crypto5g.Uplink, w1); err != nil {
		t.Fatal(err)
	}
	if _, err := amf.Unprotect(crypto5g.Uplink, w2); err != nil {
		t.Fatal(err)
	}
	// Replaying w1: its SEQ is behind, so the estimated count jumps a
	// wrap ahead and the MAC cannot match.
	if _, err := amf.Unprotect(crypto5g.Uplink, w1); err == nil {
		t.Fatal("replay accepted")
	}
}

func TestDirectionsIndependent(t *testing.T) {
	ue, amf := secPair()
	up := ue.Protect(crypto5g.Uplink, Marshal(&ServiceRequest{}))
	down := amf.Protect(crypto5g.Downlink, Marshal(&ServiceAccept{}))
	if _, err := amf.Unprotect(crypto5g.Uplink, up); err != nil {
		t.Fatal(err)
	}
	if _, err := ue.Unprotect(crypto5g.Downlink, down); err != nil {
		t.Fatal(err)
	}
	// Cross-direction verification must fail.
	fresh1, fresh2 := secPair()
	w := fresh1.Protect(crypto5g.Uplink, Marshal(&ServiceRequest{}))
	if _, err := fresh2.Unprotect(crypto5g.Downlink, w); err == nil {
		t.Fatal("uplink message verified as downlink")
	}
}

func TestSeqWraparound(t *testing.T) {
	ue, amf := secPair()
	msg := Marshal(&ServiceRequest{})
	// Push past the 8-bit SEQ wrap.
	for i := 0; i < 300; i++ {
		wire := ue.Protect(crypto5g.Uplink, msg)
		if _, err := amf.Unprotect(crypto5g.Uplink, wire); err != nil {
			t.Fatalf("message %d failed across wrap: %v", i, err)
		}
	}
}

func TestStripUnverified(t *testing.T) {
	ue, _ := secPair()
	msg := Marshal(&RegistrationRequest{
		RegistrationType: RegInitial,
		Identity:         MobileIdentity{Type: IdentitySUCI, Value: "imsi"},
	})
	wire := ue.Protect(crypto5g.Uplink, msg)
	plain, err := StripUnverified(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain, msg) {
		t.Fatal("strip corrupted the inner message")
	}
	if _, err := StripUnverified(msg); err == nil {
		t.Fatal("stripped a plain message")
	}
}

func TestIsProtectedOnShortAndPlain(t *testing.T) {
	if IsProtected(nil) || IsProtected([]byte{EPD5GMM}) {
		t.Fatal("short input misdetected")
	}
	if IsProtected(Marshal(&ServiceAccept{})) {
		t.Fatal("plain message misdetected")
	}
}

// Property: protect/unprotect round-trips arbitrary payloads in lockstep
// and different keys never cross-verify.
func TestPropertySecurityRoundTrip(t *testing.T) {
	f := func(payloads [][]byte, ik1, ik2 [16]byte) bool {
		if ik1 == ik2 {
			ik2[0] ^= 1
		}
		if len(payloads) > 20 {
			payloads = payloads[:20]
		}
		a, b := NewSecurityContext(ik1), NewSecurityContext(ik1)
		evil := NewSecurityContext(ik2)
		for _, p := range payloads {
			wire := a.Protect(crypto5g.Uplink, p)
			if _, err := evil.Unprotect(crypto5g.Uplink, wire); err == nil {
				return false
			}
			got, err := b.Unprotect(crypto5g.Uplink, wire)
			if err != nil || !bytes.Equal(got, p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// AppendProtect writes the same envelope Protect returns, after whatever
// dst already holds and into dst's own buffer when it is large enough (a
// pooled frame's), so a protected message costs no allocation per send.
func TestAppendProtectMatchesProtect(t *testing.T) {
	a, b := secPair()
	msg := Marshal(&RegistrationReject{Cause: cause.MMPLMNNotAllowed})
	buf := make([]byte, 0, 128)
	for i := 0; i < 3; i++ {
		want := a.Protect(crypto5g.Downlink, msg)
		got := b.AppendProtect(append(buf[:0], 0xAA, 0xBB), crypto5g.Downlink, msg)
		if !bytes.Equal(got[:2], []byte{0xAA, 0xBB}) || !bytes.Equal(got[2:], want) {
			t.Fatalf("round %d: AppendProtect % x, Protect % x", i, got, want)
		}
		if &got[0] != &buf[:1][0] {
			t.Fatal("AppendProtect left a buffer with room for the envelope")
		}
	}
	if n := testing.AllocsPerRun(50, func() { buf = b.AppendProtect(buf[:0], crypto5g.Downlink, msg) }); n != 0 {
		t.Errorf("AppendProtect into a sized buffer allocates %.0f objects", n)
	}
}
