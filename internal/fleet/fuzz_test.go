package fleet

import (
	"bytes"
	"testing"

	"github.com/seed5g/seed/internal/cause"
	"github.com/seed5g/seed/internal/core"
)

// FuzzReadFrame feeds arbitrary byte streams to the frame decoder. The
// decoder faces raw TCP input from untrusted devices, so it must never
// panic and never allocate past maxFrame; valid frames must round-trip.
// The same bytes then arrive as the response stream of a multiplexed
// client connection with requests in flight (checkMuxReader): never a
// panic, never a response delivered to the wrong waiter.
func FuzzReadFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendFrame(nil, Frame{Type: TAck}))
	f.Add(AppendFrame(nil, Frame{Type: TUpload, Payload: AppendSealedPayload(nil, "310170000000001", []byte{1, 2, 3})}))
	f.Add(AppendFrame(nil, Frame{Type: TRetryAfter, Payload: RetryAfterPayload(25)}))
	f.Add([]byte{0x5E, 0xED, 1, byte(TUpload), 0xFF, 0xFF, 0xFF, 0xFF}) // 4GiB length claim
	f.Add([]byte{0x5E, 0xED, 2, 0, 0, 0, 0, 0})                         // wrong version
	f.Add([]byte{0xDE, 0xAD, 1, 0, 0, 0, 0, 0})                         // wrong magic
	// Response streams: more frames than waiters, and a good frame before a bad one.
	f.Add(bytes.Repeat(AppendFrame(nil, Frame{Type: TAck}), 6))
	f.Add(append(AppendFrame(nil, Frame{Type: TSuggest, Payload: []byte{7}}), 0x5E, 0xED, 9, 0, 0, 0, 0, 0))

	const maxFrame = 1 << 16
	f.Fuzz(func(t *testing.T, data []byte) {
		checkMuxReader(t, data, maxFrame)
		fr, err := ReadFrame(bytes.NewReader(data), maxFrame)
		if err != nil {
			return
		}
		if len(fr.Payload) > maxFrame {
			t.Fatalf("decoder returned %d bytes past the %d limit", len(fr.Payload), maxFrame)
		}
		// A decoded frame re-encodes to a prefix of the input stream.
		enc := AppendFrame(nil, fr)
		if !bytes.HasPrefix(data, enc) {
			t.Fatalf("re-encoding is not a prefix of the input: in=%x enc=%x", data, enc)
		}
	})
}

// FuzzParseSealedPayload checks the upload/report payload parser: no
// panics, and accepted payloads re-encode to the same bytes.
func FuzzParseSealedPayload(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add(AppendSealedPayload(nil, "310170000000001", []byte{9, 9}))
	f.Add(AppendSealedPayload(nil, "x", nil))

	f.Fuzz(func(t *testing.T, data []byte) {
		imsi, sealed, err := ParseSealedPayload(data)
		if err != nil {
			return
		}
		if !bytes.Equal(AppendSealedPayload(nil, imsi, sealed), data) {
			t.Fatalf("round trip diverged for %x", data)
		}
	})
}

// FuzzParseQueryPayload checks the query payload parser the same way.
func FuzzParseQueryPayload(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendQueryPayload(nil, "310170000000001", cause.MM(150)))
	f.Add(AppendQueryPayload(nil, "", cause.SM(200)))

	f.Fuzz(func(t *testing.T, data []byte) {
		imsi, c, err := ParseQueryPayload(data)
		if err != nil {
			return
		}
		if !bytes.Equal(AppendQueryPayload(nil, imsi, c), data) {
			t.Fatalf("round trip diverged for %x", data)
		}
	})
}

// FuzzUnmarshalModel checks the snapshot/model codec: no panics, and
// decoded models re-encode canonically to the same bytes.
func FuzzUnmarshalModel(f *testing.F) {
	f.Add([]byte{})
	f.Add(MarshalModel(map[cause.Cause]map[core.ActionID]int{
		cause.MM(150): {core.ActionA1: 3},
		cause.SM(161): {core.ActionB3: 9},
	}))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := UnmarshalModel(data)
		if err != nil {
			return
		}
		// Canonical: sorted input re-encodes identically; unsorted or
		// duplicate-row input may legitimately differ, so only check the
		// decode→encode→decode fixed point.
		enc := MarshalModel(m)
		m2, err := UnmarshalModel(enc)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !bytes.Equal(MarshalModel(m2), enc) {
			t.Fatalf("encode not a fixed point for %x", data)
		}
	})
}
