package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/seed5g/seed/internal/cause"
	"github.com/seed5g/seed/internal/crypto5g"
	"github.com/seed5g/seed/internal/nas"
)

func TestDiagMessageRoundTrip(t *testing.T) {
	cases := []DiagMessage{
		{Kind: DiagCause, Plane: cause.ControlPlane, Code: cause.MMPLMNNotAllowed},
		{Kind: DiagCauseConfig, Plane: cause.DataPlane, Code: cause.SMMissingOrUnknownDNN,
			ConfigKind: cause.ConfigDNN, Config: []byte("internet2")},
		{Kind: DiagCauseConfig, Plane: cause.ControlPlane, Code: cause.MMNoNetworkSlicesAvailable,
			ConfigKind: cause.ConfigSNSSAI, Config: []byte{2, 0, 0, 0}},
		{Kind: DiagSuggestAction, Plane: cause.DataPlane, Code: 199, Action: ActionB3},
		{Kind: DiagCongestion, Plane: cause.ControlPlane, Code: cause.MMCongestion, WaitSeconds: 300},
		{Kind: DiagUnknown, Plane: cause.DataPlane, Code: 222},
	}
	for _, m := range cases {
		got, err := UnmarshalDiag(m.Marshal())
		if err != nil {
			t.Fatalf("%+v: %v", m, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("roundtrip: sent %+v got %+v", m, got)
		}
	}
}

func TestUnmarshalDiagErrors(t *testing.T) {
	bad := [][]byte{
		nil,
		{1},
		{byte(DiagCauseConfig), 1, 2}, // missing config header
		{byte(DiagCauseConfig), 1, 2, 1, 5, 0, 0}, // config shorter than declared
		{byte(DiagSuggestAction), 1, 2},           // missing action
		{byte(DiagCongestion), 1, 2, 0},           // missing wait
		{99, 1, 2},                                // unknown kind
	}
	for i, b := range bad {
		if _, err := UnmarshalDiag(b); err == nil {
			t.Errorf("case %d accepted: %x", i, b)
		}
	}
}

func TestFragmentAUTNReassembly(t *testing.T) {
	for _, n := range []int{1, 5, 13, 14, 26, 100} {
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(i * 7)
		}
		frags := FragmentAUTN(payload)
		wantFrags := (n + 12) / 13
		if len(frags) != wantFrags {
			t.Fatalf("n=%d: %d fragments, want %d", n, len(frags), wantFrags)
		}
		var r Reassembler
		var got []byte
		for i, f := range frags {
			out := r.Accept(f)
			if i < len(frags)-1 && out != nil {
				t.Fatalf("n=%d: complete after %d/%d fragments", n, i+1, len(frags))
			}
			got = out
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("n=%d: reassembly mismatch", n)
		}
	}
}

func TestReassemblerOutOfOrderAndDuplicates(t *testing.T) {
	payload := []byte("a multi fragment diagnosis payload for the SIM!")
	frags := FragmentAUTN(payload)
	if len(frags) < 3 {
		t.Fatal("need ≥3 fragments for this test")
	}
	var r Reassembler
	// Deliver reversed with duplicates interleaved.
	var got []byte
	for i := len(frags) - 1; i >= 0; i-- {
		got = r.Accept(frags[i])
		r.Accept(frags[i]) // duplicate after completion state change is benign
		if i > 0 && got != nil {
			t.Fatal("completed early")
		}
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("out-of-order reassembly failed: %q", got)
	}
}

func TestReassemblerPreemptedByNewMessage(t *testing.T) {
	a := FragmentAUTN(bytes.Repeat([]byte{1}, 30)) // 3 fragments
	b := FragmentAUTN(bytes.Repeat([]byte{2}, 14)) // 2 fragments
	var r Reassembler
	r.Accept(a[0])
	// A new message with a different total preempts the stale partial one.
	if out := r.Accept(b[0]); out != nil {
		t.Fatal("early completion")
	}
	out := r.Accept(b[1])
	if !bytes.Equal(out, bytes.Repeat([]byte{2}, 14)) {
		t.Fatalf("preempted reassembly = %x", out)
	}
}

func TestReassemblerRejectsGarbageHeaders(t *testing.T) {
	var r Reassembler
	var f [16]byte
	f[0], f[1] = 5, 3 // seq ≥ total
	if r.Accept(f) != nil {
		t.Fatal("accepted seq≥total")
	}
	f[0], f[1] = 0, 0 // zero total
	if r.Accept(f) != nil {
		t.Fatal("accepted zero total")
	}
	f[0], f[1], f[2] = 0, 1, 14 // len > 13
	if r.Accept(f) != nil {
		t.Fatal("accepted oversize len")
	}
}

func TestFragmentDNNFitsBudgetAndRoundTrips(t *testing.T) {
	for _, n := range []int{1, 20, 46, 47, 200} {
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(i * 3)
		}
		frags := FragmentDNN(payload)
		for _, f := range frags {
			if !nas.ValidDNN(f) {
				t.Fatalf("fragment DNN invalid (len %d)", len(f))
			}
			if f[:4] != "DIAG" {
				t.Fatalf("fragment missing DIAG prefix: %q", f[:8])
			}
		}
		var r DNNReassembler
		var got []byte
		for _, f := range frags {
			out, err := r.Accept(f[4:])
			if err != nil {
				t.Fatal(err)
			}
			got = out
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("n=%d: DNN reassembly mismatch", n)
		}
	}
}

func TestDNNReassemblerErrors(t *testing.T) {
	var r DNNReassembler
	if _, err := r.Accept("not-hex!"); err == nil {
		t.Fatal("accepted bad hex")
	}
	if _, err := r.Accept("00"); err == nil {
		t.Fatal("accepted short fragment")
	}
	if _, err := r.Accept("0500"); err == nil {
		t.Fatal("accepted bad header")
	}
}

func TestDiagAck(t *testing.T) {
	ack := DiagAck(7)
	if len(ack) != 14 {
		t.Fatalf("ack length %d, want 14 (AUTS size)", len(ack))
	}
	seq, okA := ParseDiagAck(ack)
	if !okA || seq != 7 {
		t.Fatalf("ParseDiagAck = %d, %v", seq, okA)
	}
	if _, okA := ParseDiagAck([]byte{1, 2, 3}); okA {
		t.Fatal("parsed a non-ack")
	}
	// A real resync AUTS must not parse as an ack.
	real := make([]byte, 14)
	real[0] = 0xAA
	if _, okA := ParseDiagAck(real); okA {
		t.Fatal("real AUTS misparsed as ack")
	}
}

func TestDeriveEnvelopeKeys(t *testing.T) {
	var k1, k2 [16]byte
	copy(k1[:], "subscriber-key-1")
	copy(k2[:], "subscriber-key-2")
	e1a, i1a := DeriveEnvelopeKeys(k1)
	e1b, i1b := DeriveEnvelopeKeys(k1)
	e2, i2 := DeriveEnvelopeKeys(k2)
	if e1a != e1b || i1a != i1b {
		t.Fatal("derivation not deterministic")
	}
	if e1a == e2 || i1a == i2 {
		t.Fatal("different subscribers derived the same keys")
	}
	if e1a == i1a {
		t.Fatal("encryption and integrity keys identical")
	}
}

// Property: any payload survives seal → AUTN fragmentation → reassembly →
// open; a payload sealed under a different key never opens.
func TestPropertySealedFragmentChannel(t *testing.T) {
	f := func(payload []byte, k [16]byte, other [16]byte) bool {
		if len(payload) > 1500 {
			payload = payload[:1500]
		}
		if other == k {
			other[0] ^= 1
		}
		sender := NewChannelEnvelope(k)
		receiver := NewChannelEnvelope(k)
		wrong := NewChannelEnvelope(other)

		sealed, err := sender.Seal(crypto5g.Downlink, payload)
		if err != nil {
			return false
		}
		var r Reassembler
		var full []byte
		for _, frag := range FragmentAUTN(sealed) {
			full = r.Accept(frag)
		}
		if full == nil {
			return false
		}
		if _, err := wrong.Open(crypto5g.Downlink, full); err == nil {
			return false // forged-key open must fail
		}
		got, err := receiver.Open(crypto5g.Downlink, full)
		return err == nil && bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestActionProperties(t *testing.T) {
	for _, a := range []ActionID{ActionA1, ActionA2, ActionA3} {
		if a.RequiresRoot() {
			t.Fatalf("%v should not require root", a)
		}
		if !a.Equivalent().RequiresRoot() {
			t.Fatalf("%v equivalent should be a B action", a)
		}
		if a.Equivalent().Equivalent() != a {
			t.Fatalf("%v equivalence not involutive", a)
		}
		if a.ForMode(ModeU) != a || a.ForMode(ModeR) != a {
			t.Fatalf("A-actions must survive both modes")
		}
	}
	for _, b := range []ActionID{ActionB1, ActionB2, ActionB3} {
		if !b.RequiresRoot() {
			t.Fatalf("%v should require root", b)
		}
		if b.ForMode(ModeU).RequiresRoot() {
			t.Fatalf("%v not degraded without root", b)
		}
		if b.ForMode(ModeR) != b {
			t.Fatalf("%v changed under root", b)
		}
	}
	if len(LearningOrder) != 6 {
		t.Fatal("learning order must cover all six actions")
	}
	if LearningOrder[0] != ActionB3 || LearningOrder[len(LearningOrder)-1] != ActionA1 {
		t.Fatal("learning order must go cheapest (data plane) to most disruptive (hardware)")
	}
	if ModeU.String() != "SEED-U" || ModeR.String() != "SEED-R" {
		t.Fatal("mode strings drifted")
	}
}

func TestLearner(t *testing.T) {
	l := NewLearner(0.5, rand.New(rand.NewSource(1)))
	c := cause.Cause{Plane: cause.DataPlane, Code: 180}

	if _, has := l.Best(c); has {
		t.Fatal("best with no evidence")
	}
	if _, sug := l.Suggest(c); sug {
		t.Fatal("suggestion with no evidence")
	}

	l.Crowdsource(Records{
		c: {ActionB3: 3, ActionB1: 1},
	})
	best, has := l.Best(c)
	if !has || best != ActionB3 {
		t.Fatalf("best = %v (%v)", best, has)
	}
	if l.Evidence(c) != 4 {
		t.Fatalf("evidence = %d", l.Evidence(c))
	}
	if l.Causes() != 1 {
		t.Fatalf("causes = %d", l.Causes())
	}

	// The logistic gate: with heavy evidence, suggestions flow almost
	// always; verify the empirical rate is high but occasionally null.
	l.Crowdsource(Records{c: {ActionB3: 20}})
	sent := 0
	for i := 0; i < 1000; i++ {
		if _, okS := l.Suggest(c); okS {
			sent++
		}
	}
	if sent < 950 {
		t.Fatalf("suggestion rate %d/1000 with strong evidence", sent)
	}

	// Tie-breaking prefers the cheaper action.
	c2 := cause.Cause{Plane: cause.ControlPlane, Code: 181}
	l.Crowdsource(Records{
		c2: {ActionA1: 2, ActionB3: 2},
	})
	if best, _ := l.Best(c2); best != ActionB3 {
		t.Fatalf("tie break chose %v, want the cheaper B3", best)
	}
}

func TestRecordsMarshalRoundTrip(t *testing.T) {
	blob := []byte{
		byte(cause.DataPlane), 150, byte(ActionB3), 0, 3,
		byte(cause.ControlPlane), 151, byte(ActionB1), 0, 1,
	}
	recs, err := UnmarshalRecords(blob)
	if err != nil {
		t.Fatal(err)
	}
	if recs[cause.Cause{Plane: cause.DataPlane, Code: 150}][ActionB3] != 3 {
		t.Fatalf("records = %+v", recs)
	}
	if _, err := UnmarshalRecords([]byte{1, 2, 3}); err == nil {
		t.Fatal("accepted misaligned blob")
	}
}
