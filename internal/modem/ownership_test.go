package modem

// Tests for the frame and security-context ownership rules a shared
// signalling pool depends on.

import (
	"reflect"
	"testing"
	"time"

	"github.com/seed5g/seed/internal/crypto5g"
	"github.com/seed5g/seed/internal/nas"
	"github.com/seed5g/seed/internal/netemu"
	"github.com/seed5g/seed/internal/radio"
)

// freeFrames lists the pointers on a pool's free list (NASPool or
// FramePool), failing the test when one is there twice: a double release.
func freeFrames(t *testing.T, pool any) []uintptr {
	t.Helper()
	free := reflect.ValueOf(pool).Elem().FieldByName("free")
	seen := map[uintptr]bool{}
	var out []uintptr
	for i := 0; i < free.Len(); i++ {
		p := free.Index(i).Pointer()
		if seen[p] {
			t.Fatalf("frame %#x is on the free list twice", p)
		}
		seen[p] = true
		out = append(out, p)
	}
	return out
}

// TestFrameReleasedWhenModemOff: a frame delivered to a modem that is off
// or booting is dropped by the modem, but it is still the modem's to
// release. HandleDownlink used to return before looking at it, which with
// one pool per testbed and a legacy device rebooting eighteen times a cell
// drained the pool into the collector.
func TestFrameReleasedWhenModemOff(t *testing.T) {
	k, m, _ := newModemHarness(t)
	for _, state := range []State{StateOff, StateBooting} {
		if state == StateBooting {
			m.PowerOn()
		}
		if m.State() != state {
			t.Fatalf("state = %v, want %v", m.State(), state)
		}
		before := m.Stats()
		nf := m.nasFrames.Get("001010000000001")
		nf.Bytes = nas.AppendMarshal(nf.Bytes, &nas.RegistrationReject{Cause: 11})
		pf := m.frames.Get()
		*pf = radio.Packet{UE: "001010000000001", SessionID: 1, Length: 100}
		nasOut, pktOut := len(freeFrames(t, m.nasFrames)), len(freeFrames(t, m.frames))
		m.HandleDownlink(nf)
		m.HandleDownlink(pf)
		if got := len(freeFrames(t, m.nasFrames)); got != nasOut+1 {
			t.Errorf("%v: signalling pool holds %d frames after the delivery, want the %d it held plus the frame", state, got, nasOut)
		}
		if got := len(freeFrames(t, m.frames)); got != pktOut+1 {
			t.Errorf("%v: packet pool holds %d frames after the delivery, want the %d it held plus the frame", state, got, pktOut)
		}
		if m.Stats() != before {
			t.Errorf("%v: the modem counted a frame it cannot hear: %+v -> %+v", state, before, m.Stats())
		}
	}

	// Under a duplicating link both copies are released, each once: the
	// copy is a frame of its own (CloneMsg), never the original again.
	m.PowerOff()
	link := netemu.NewLink(k, "dup", time.Millisecond, m.HandleDownlink)
	link.Dup = 1
	nf := m.nasFrames.Get("001010000000001")
	nf.Bytes = nas.AppendMarshal(nf.Bytes, &nas.RegistrationReject{Cause: 11})
	pf := m.frames.Get()
	pf.SessionID = 1
	nasOut, pktOut := len(freeFrames(t, m.nasFrames)), len(freeFrames(t, m.frames))
	if !link.Send(nf) || !link.Send(pf) {
		t.Fatal("link refused a frame")
	}
	k.RunFor(time.Second)
	if _, dup := link.AdvStats(); dup != 2 {
		t.Fatalf("link duplicated %d frames, want 2", dup)
	}
	if got := len(freeFrames(t, m.nasFrames)); got != nasOut+2 {
		t.Errorf("signalling pool holds %d frames after a duplicated delivery, want %d: original and copy", got, nasOut+2)
	}
	if got := len(freeFrames(t, m.frames)); got != pktOut+2 {
		t.Errorf("packet pool holds %d frames after a duplicated delivery, want %d: original and copy", got, pktOut+2)
	}
}

// TestRekeyCandidateBuiltOncePerAKA: between a successful AKA and the
// Security Mode Command every protected downlink the active context
// rejects is tried against a context keyed by the new IK. That candidate
// is built once and kept — a failed verification does not touch it — so
// fifty forged downlinks in the window cost no key expansion (no
// allocation at all), and the genuine Security Mode Command still adopts
// it.
func TestRekeyCandidateBuiltOncePerAKA(t *testing.T) {
	k, m, f, _ := newAuthHarness(t)
	m.PowerOn()
	// Run to the window: the challenge answered, the Security Mode Command
	// not yet delivered (authNet sends it a millisecond after the RES).
	for f.smcWire == nil {
		if !k.Step() {
			t.Fatal("no Security Mode Command was ever sent")
		}
	}
	if !m.rekeyPending || m.sec != nil {
		t.Fatalf("not in the re-key window: pending %v, context %v", m.rekeyPending, m.sec)
	}

	// A forgery: protected under a key the attacker made up. (A 5GMM
	// Status, which the modem reads under the initial-message allowance
	// and does nothing about, so that what is counted below is the
	// verification alone; it arrives in a pooled frame, as off the link.)
	forged := nas.NewSecurityContext([16]byte{0xBA, 0xD0}).Protect(crypto5g.Downlink,
		nas.Marshal(&nas.MMStatus{Cause: 111}))
	deliver := func() {
		nf := m.nasFrames.Get(m.IMSI())
		nf.Bytes = append(nf.Bytes, forged...)
		m.HandleDownlink(nf)
	}
	received := m.Stats().NASReceived
	deliver() // the first need builds the candidate
	candidate := m.rekey
	if candidate == nil {
		t.Fatal("no candidate context after a protected downlink in the window")
	}
	perFrame := testing.AllocsPerRun(50, deliver)
	if got := m.Stats().NASReceived - received; got != 52 {
		t.Fatalf("modem read %d forgeries, want 52", got)
	}
	if perFrame != 0 {
		t.Errorf("a forged protected downlink in the re-key window allocates %.0f objects", perFrame)
	}
	if m.rekey != candidate || !m.rekeyPending || m.sec != nil {
		t.Fatal("forgeries changed the security state")
	}
	if _, verified := candidate.Stats(); verified != 0 {
		t.Fatalf("the candidate verified %d forgeries", verified)
	}

	// The genuine command, already on its way, adopts that candidate, and
	// the registration completes under it (authNet.tx fails the test on an
	// uplink that does not verify).
	k.RunFor(2 * time.Millisecond)
	if m.sec != candidate || m.rekeyPending || m.rekey != nil {
		t.Fatalf("Security Mode Command did not adopt the candidate: sec %p candidate %p pending %v", m.sec, candidate, m.rekeyPending)
	}
	k.RunFor(10 * time.Second)
	if m.State() != StateRegistered || f.authRounds != 1 || f.smcSeen != 1 {
		t.Fatalf("state %v after %d AKA rounds and %d Security Mode rounds", m.State(), f.authRounds, f.smcSeen)
	}

	// The next AKA replaces the candidate rather than reusing it, and a
	// power cycle drops one that was never adopted.
	m.Reattach()
	for f.authRounds < 2 || f.smcWire == nil || !m.rekeyPending {
		f.smcWire = nil
		if !k.Step() {
			t.Fatal("the reattach never reached its AKA")
		}
	}
	deliver()
	if m.rekey == nil || m.rekey == m.sec {
		t.Fatal("second AKA: no candidate of its own")
	}
	m.PowerOff()
	if m.rekey != nil || m.rekeyPending || m.sec != nil {
		t.Fatal("PowerOff kept security state")
	}
}
