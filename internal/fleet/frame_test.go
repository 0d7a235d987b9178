package fleet

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"github.com/seed5g/seed/internal/cause"
	"github.com/seed5g/seed/internal/core"
)

func TestFrameRoundTrip(t *testing.T) {
	frames := []Frame{
		{Type: TUpload, Payload: AppendSealedPayload(nil, "310170000000001", []byte{1, 2, 3})},
		{Type: TAck},
		{Type: TRetryAfter, Payload: RetryAfterPayload(25)},
		{Type: TModel, Payload: bytes.Repeat([]byte{0xAB}, 700)},
	}
	br := bufio.NewReader(bytes.NewReader(encodeFrames(frames...)))
	for _, want := range frames {
		got, err := ReadFrame(br, DefaultMaxFrame)
		if err != nil {
			t.Fatalf("read %v: %v", want.Type, err)
		}
		if got.Type != want.Type || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("round trip %v: got %v (%d bytes)", want.Type, got.Type, len(got.Payload))
		}
	}
	if _, err := ReadFrame(br, DefaultMaxFrame); err != io.EOF {
		t.Fatalf("want io.EOF at stream end, got %v", err)
	}
	// A server connection reads every frame into one buffer: a frame
	// shorter than the last reads the same, with the model's bytes still
	// behind it in the buffer.
	frames = append(frames, frames[0], frames[1])
	br = bufio.NewReader(bytes.NewReader(encodeFrames(frames...)))
	var buf []byte
	for i, want := range frames {
		got, b, err := readFrame(br, DefaultMaxFrame, buf)
		if err != nil {
			t.Fatalf("frame %d into a reused buffer: %v", i, err)
		}
		if got.Type != want.Type || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d into a reused buffer: got %v (%d bytes), want %v (%d)", i, got.Type, len(got.Payload), want.Type, len(want.Payload))
		}
		buf = b
	}
	if _, _, err := readFrame(br, DefaultMaxFrame, buf); err != io.EOF {
		t.Fatalf("want io.EOF at stream end, got %v", err)
	}
}

func TestReadFrameRejectsBadInput(t *testing.T) {
	valid := AppendFrame(nil, Frame{Type: TAck, Payload: []byte("xyz")})
	cases := []struct {
		name string
		data []byte
		max  uint32
	}{
		{"bad magic", append([]byte{0xDE, 0xAD}, valid[2:]...), DefaultMaxFrame},
		{"bad version", append([]byte{0x5E, 0xED, 9}, valid[3:]...), DefaultMaxFrame},
		{"oversized", valid, 2},
		{"truncated header", valid[:5], DefaultMaxFrame},
		{"truncated payload", valid[:len(valid)-1], DefaultMaxFrame},
	}
	// The same bytes read into a buffer that holds a valid frame already.
	reused := bytes.Repeat(valid, 2)
	for _, tc := range cases {
		if _, err := ReadFrame(bytes.NewReader(tc.data), tc.max); err == nil {
			t.Errorf("%s: decoded without error", tc.name)
		}
		if _, _, err := readFrame(bytes.NewReader(tc.data), tc.max, reused); err == nil {
			t.Errorf("%s: decoded into a reused buffer without error", tc.name)
		}
	}
	// Oversized specifically identifies as ErrFrameTooLarge.
	if _, err := ReadFrame(bytes.NewReader(valid), 2); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversized: want ErrFrameTooLarge, got %v", err)
	}
	// A mid-frame cut is ErrUnexpectedEOF, not a clean EOF.
	if _, err := ReadFrame(bytes.NewReader(valid[:5]), DefaultMaxFrame); err != io.ErrUnexpectedEOF {
		t.Errorf("truncated header: want ErrUnexpectedEOF, got %v", err)
	}
}

func TestSealedPayloadCodec(t *testing.T) {
	imsi := "310170000000042"
	sealed := []byte{9, 8, 7, 6}
	p := AppendSealedPayload(nil, imsi, sealed)
	gotIMSI, gotSealed, err := ParseSealedPayload(p)
	if err != nil {
		t.Fatal(err)
	}
	if gotIMSI != imsi || !bytes.Equal(gotSealed, sealed) {
		t.Fatalf("got %q %v", gotIMSI, gotSealed)
	}
	for _, bad := range [][]byte{nil, {0}, {5, 'a', 'b'}, append([]byte{MaxIMSILen + 1}, strings.Repeat("x", MaxIMSILen+1)...)} {
		if _, _, err := ParseSealedPayload(bad); err == nil {
			t.Errorf("payload %v parsed without error", bad)
		}
	}
}

func TestQueryPayloadCodec(t *testing.T) {
	c := cause.SM(161)
	p := AppendQueryPayload(nil, "001010000000001", c)
	imsi, got, err := ParseQueryPayload(p)
	if err != nil {
		t.Fatal(err)
	}
	if imsi != "001010000000001" || got != c {
		t.Fatalf("got %q %v", imsi, got)
	}
	if _, _, err := ParseQueryPayload(p[:len(p)-1]); err == nil {
		t.Error("truncated query parsed without error")
	}
	if _, _, err := ParseQueryPayload(append(p, 0)); err == nil {
		t.Error("over-long query parsed without error")
	}
}

func TestSuggestPayloadDecodes(t *testing.T) {
	c := cause.MM(155)
	m, err := core.UnmarshalDiag(SuggestPayload(c, core.ActionB3))
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind != core.DiagSuggestAction || m.Plane != c.Plane || m.Code != c.Code || m.Action != core.ActionB3 {
		t.Fatalf("decoded %+v", m)
	}
}

func TestModelCodecCanonical(t *testing.T) {
	m := core.Records{
		cause.SM(160): {core.ActionB3: 7, core.ActionA1: 2},
		cause.MM(150): {core.ActionB1: 3},
	}
	enc := MarshalModel(m)
	// Same content built in a different insertion order encodes identically.
	m2 := core.Records{}
	m2.Add(cause.MM(150), core.ActionB1, 1)
	m2.Merge(core.Records{cause.SM(160): {core.ActionA1: 2, core.ActionB3: 7}})
	m2.Add(cause.MM(150), core.ActionB1, 2)
	if !bytes.Equal(enc, MarshalModel(m2)) {
		t.Fatal("canonical encoding differs for equal models")
	}
	dec, err := core.ParseRecords(enc, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(MarshalModel(dec), enc) {
		t.Fatal("decode/re-encode not idempotent")
	}
	if _, err := core.ParseRecords(enc[:len(enc)-1], 4); err == nil {
		t.Fatal("truncated model decoded without error")
	}
	// Zero and negative counts are dropped, not encoded.
	if len(MarshalModel(core.Records{cause.MM(1): {core.ActionA1: 0, core.ActionA2: -3}})) != 0 {
		t.Fatal("zero count encoded")
	}
}

func TestSubscriberKeyDistinctPerIMSI(t *testing.T) {
	k1 := SubscriberKey(DefaultMasterKey, "310170000000001")
	k2 := SubscriberKey(DefaultMasterKey, "310170000000002")
	if k1 == k2 {
		t.Fatal("distinct IMSIs derived the same key")
	}
	if k1 != SubscriberKey(DefaultMasterKey, "310170000000001") {
		t.Fatal("derivation not deterministic")
	}
	other := DefaultMasterKey
	other[0] ^= 0xFF
	if k1 == SubscriberKey(other, "310170000000001") {
		t.Fatal("master key does not affect derivation")
	}
}

func TestParseMasterKey(t *testing.T) {
	if _, err := ParseMasterKey("00112233445566778899aabbccddeeff"); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", "00", "zz112233445566778899aabbccddeeff", "00112233445566778899aabbccddeeff00"} {
		if _, err := ParseMasterKey(bad); err == nil {
			t.Errorf("%q parsed without error", bad)
		}
	}
}
