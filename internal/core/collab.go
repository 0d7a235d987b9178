package core

import (
	"crypto/aes"
	"encoding/hex"
	"fmt"

	"github.com/seed5g/seed/internal/cause"
	"github.com/seed5g/seed/internal/crypto5g"
	"github.com/seed5g/seed/internal/nas"
)

// DiagKind classifies a downlink diagnosis message (the four assistance
// types of §5.2 plus the plain standardized-cause delivery of §4.3).
type DiagKind uint8

const (
	// DiagCause delivers a standardized cause code.
	DiagCause DiagKind = iota + 1
	// DiagCauseConfig delivers a cause code plus the up-to-date
	// configuration (Appendix A causes).
	DiagCauseConfig
	// DiagSuggestAction delivers a customized cause with a suggested
	// reset action.
	DiagSuggestAction
	// DiagCongestion warns of cell/core congestion with a wait timer.
	DiagCongestion
	// DiagUnknown delivers a customized cause with no suggestion — the
	// online-learning trial trigger.
	DiagUnknown
)

func (k DiagKind) String() string {
	switch k {
	case DiagCause:
		return "cause"
	case DiagCauseConfig:
		return "cause+config"
	case DiagSuggestAction:
		return "suggested-action"
	case DiagCongestion:
		return "congestion"
	case DiagUnknown:
		return "unknown-cause"
	default:
		return fmt.Sprintf("DiagKind(%d)", uint8(k))
	}
}

// DiagMessage is the diagnosis payload the infrastructure sends to the
// SIM (sealed, then fragmented into AUTN fields).
type DiagMessage struct {
	Kind  DiagKind
	Plane cause.Plane
	Code  cause.Code

	// ConfigKind/Config carry the updated configuration for
	// DiagCauseConfig.
	ConfigKind cause.ConfigKind
	Config     []byte

	// Action is the suggestion for DiagSuggestAction.
	Action ActionID

	// WaitSeconds is the congestion backoff for DiagCongestion.
	WaitSeconds uint16
}

// Marshal encodes the message compactly (it must survive sealing and
// AUTN-field fragmentation with as few rounds as possible).
func (m DiagMessage) Marshal() []byte { return m.AppendMarshal(nil) }

// AppendMarshal is Marshal appending to out.
func (m DiagMessage) AppendMarshal(out []byte) []byte {
	out = append(out, byte(m.Kind), byte(m.Plane), byte(m.Code))
	switch m.Kind {
	case DiagCauseConfig:
		out = append(out, byte(m.ConfigKind), byte(len(m.Config)))
		out = append(out, m.Config...)
	case DiagSuggestAction:
		out = append(out, byte(m.Action))
	case DiagCongestion:
		out = append(out, byte(m.WaitSeconds>>8), byte(m.WaitSeconds))
	}
	return out
}

// UnmarshalDiag decodes a diagnosis message.
func UnmarshalDiag(data []byte) (DiagMessage, error) {
	if len(data) < 3 {
		return DiagMessage{}, fmt.Errorf("core: diag message too short (%d)", len(data))
	}
	m := DiagMessage{
		Kind:  DiagKind(data[0]),
		Plane: cause.Plane(data[1]),
		Code:  cause.Code(data[2]),
	}
	rest := data[3:]
	switch m.Kind {
	case DiagCause, DiagUnknown:
	case DiagCauseConfig:
		if len(rest) < 2 {
			return m, fmt.Errorf("core: diag config header truncated")
		}
		m.ConfigKind = cause.ConfigKind(rest[0])
		n := int(rest[1])
		if len(rest) < 2+n {
			return m, fmt.Errorf("core: diag config truncated: want %d have %d", n, len(rest)-2)
		}
		m.Config = append([]byte(nil), rest[2:2+n]...)
	case DiagSuggestAction:
		if len(rest) < 1 {
			return m, fmt.Errorf("core: diag action truncated")
		}
		m.Action = ActionID(rest[0])
	case DiagCongestion:
		if len(rest) < 2 {
			return m, fmt.Errorf("core: diag congestion truncated")
		}
		m.WaitSeconds = uint16(rest[0])<<8 | uint16(rest[1])
	default:
		return m, fmt.Errorf("core: unknown diag kind %d", data[0])
	}
	return m, nil
}

// DeriveEnvelopeKeys derives the collaboration channel's encryption and
// integrity keys from the pre-shared in-SIM key K, as the prototype does
// ("using the pre-shared in-SIM key", §6). Both sides hold K, so both
// derive identical keys without any certificate exchange.
func DeriveEnvelopeKeys(k [16]byte) (enc, integ [16]byte) {
	// K and both blocks share one array: what is passed through the
	// cipher.Block interface escapes, so this is one object, not four.
	var b [3][16]byte
	b[0] = k
	block, err := aes.NewCipher(b[0][:])
	if err != nil {
		panic(err) // 16-byte array cannot fail
	}
	copy(b[1][:], "SEED-ENC-KEY-001")
	copy(b[2][:], "SEED-INT-KEY-001")
	block.Encrypt(b[1][:], b[1][:])
	block.Encrypt(b[2][:], b[2][:])
	return b[1], b[2]
}

// NewChannelEnvelope builds the sealed channel for a subscriber key.
func NewChannelEnvelope(k [16]byte) *crypto5g.Envelope {
	enc, integ := DeriveEnvelopeKeys(k)
	env, err := crypto5g.NewEnvelope(enc[:], integ[:], 0x1D) // diagnosis bearer tag
	if err != nil {
		panic(err) // keys are fixed-size
	}
	return env
}

// --- fragmentation (downlink AUTN, Fig 7a; uplink DNN, Fig 7b) ----------

// chunk splits sealed into the data of its fragments, at most size bytes
// each and at least one fragment; a fragment header numbers them in one
// byte.
func chunk(sealed []byte, size int) [][]byte {
	out := make([][]byte, fragments(sealed, size))
	for i := range out {
		out[i] = sealed[i*size : min((i+1)*size, len(sealed))]
	}
	return out
}

// fragments returns how many fragments of size bytes carry sealed (at
// least one).
func fragments(sealed []byte, size int) int {
	total := max(1, (len(sealed)+size-1)/size)
	if total > 255 {
		panic(fmt.Sprintf("core: payload too large to fragment: %d bytes", len(sealed)))
	}
	return total
}

// autnFragData is the payload bytes per AUTN fragment: 16 minus the
// 3-byte fragment header (seq, total, length).
const autnFragData = 13

// FragmentAUTN splits sealed bytes into AUTN-sized fragments. Each
// fragment is seq(1) | total(1) | len(1) | data(≤13), zero-padded.
func FragmentAUTN(sealed []byte) [][16]byte {
	return AppendFragmentsAUTN(nil, sealed)
}

// AppendFragmentsAUTN is FragmentAUTN appending the fragments to out.
func AppendFragmentsAUTN(out [][16]byte, sealed []byte) [][16]byte {
	total := fragments(sealed, autnFragData)
	for i := range total {
		c := sealed[i*autnFragData : min((i+1)*autnFragData, len(sealed))]
		var f [16]byte
		f[0], f[1], f[2] = byte(i), byte(total), byte(len(c))
		copy(f[3:], c)
		out = append(out, f)
	}
	return out
}

// Reassembler collects fragments back into the sealed payload. Both
// channels reassemble with it: Accept takes an AUTN fragment, and
// DNNReassembler hands it decoded DIAG DNN fragments. Its buffers are
// reused from one message to the next, so the payload it returns is good
// until the next fragment.
type Reassembler struct {
	// parts[:total] hold the current message's fragments; have marks the
	// non-empty ones that arrived (an empty fragment counts, every time,
	// without being marked).
	parts [][]byte
	have  [4]uint64
	total int
	got   int
	full  []byte
}

// Warm sizes for a diagnosis of a few AUTN fragments.
const (
	warmFragments = 4
	warmPayload   = 64
)

// warm sizes the buffers ahead of a prototype snapshot.
func (r *Reassembler) warm() {
	for len(r.parts) < warmFragments {
		r.parts = append(r.parts, make([]byte, 0, autnFragData))
	}
	if cap(r.full) == 0 {
		r.full = make([]byte, 0, warmPayload)
	}
}

// Accept consumes one AUTN fragment. It returns the complete payload once
// all fragments arrived, or nil while incomplete or for a malformed
// fragment.
func (r *Reassembler) Accept(frag [16]byte) []byte {
	n := int(frag[2])
	if n > autnFragData {
		return nil
	}
	full, _ := r.add(int(frag[0]), int(frag[1]), frag[3:3+n])
	return full
}

// add files fragment seq of total. It returns the complete payload once
// all fragments arrived, nil while incomplete, and ok false for a header
// that numbers no fragment. Out-of-order and duplicate fragments are
// tolerated; a fragment with a different total resets the assembly (new
// message preempts a stale partial one).
func (r *Reassembler) add(seq, total int, data []byte) (full []byte, ok bool) {
	if total == 0 || seq >= total {
		return nil, false
	}
	if total != r.total {
		for len(r.parts) < total {
			r.parts = append(r.parts, nil)
		}
		for i := range r.parts[:total] {
			r.parts[i] = r.parts[i][:0]
		}
		r.have = [4]uint64{}
		r.total = total
		r.got = 0
	}
	if bit := uint64(1) << (seq & 63); r.have[seq>>6]&bit == 0 {
		r.parts[seq] = append(r.parts[seq][:0], data...)
		if len(data) > 0 {
			r.have[seq>>6] |= bit
		}
		r.got++
	}
	if r.got < r.total {
		return nil, true
	}
	r.full = r.full[:0]
	for _, p := range r.parts[:r.total] {
		r.full = append(r.full, p...)
	}
	r.total = 0
	r.got = 0
	if len(r.full) == 0 {
		return nil, true
	}
	return r.full, true
}

// dnnFragData is the sealed-payload bytes per DNN fragment: the DNN
// budget (100) minus the "DIAG" prefix, hex-encoded, with a 2-byte header.
const dnnFragData = (nas.MaxDNNLen-len("DIAG"))/2 - 2 // 46 bytes

// FragmentDNN splits sealed report bytes into DIAG DNN strings, each
// "DIAG" | hex(seq(1) | total(1) | data(≤46)).
func FragmentDNN(sealed []byte) []string {
	chunks := chunk(sealed, dnnFragData)
	out := make([]string, len(chunks))
	for i, c := range chunks {
		out[i] = "DIAG" + hex.EncodeToString(append([]byte{byte(i), byte(len(chunks))}, c...))
	}
	return out
}

// DNNReassembler collects one UE's uplink DNN fragments: it decodes each
// and hands it to its Reassembler.
type DNNReassembler struct {
	r Reassembler
}

// Accept consumes the payload portion of one DIAG DNN (everything after
// the prefix, still hex). It returns the complete sealed report once all
// fragments arrived.
func (d *DNNReassembler) Accept(hexPayload string) ([]byte, error) {
	raw, err := hex.DecodeString(hexPayload)
	if err != nil {
		return nil, fmt.Errorf("core: bad DIAG DNN encoding: %w", err)
	}
	if len(raw) < 2 {
		return nil, fmt.Errorf("core: DIAG DNN fragment too short")
	}
	full, ok := d.r.add(int(raw[0]), int(raw[1]), raw[2:])
	if !ok {
		return nil, fmt.Errorf("core: bad DIAG DNN fragment header %d/%d", raw[0], raw[1])
	}
	return full, nil
}

// DiagAck is the AUTS payload the SIM returns to acknowledge a received
// diagnosis fragment.
func DiagAck(seq byte) []byte {
	ack := diagAck(seq)
	return ack[:]
}

// diagAckLen is the length of a diagnosis ACK.
const diagAckLen = 14

func diagAck(seq byte) [diagAckLen]byte {
	return [diagAckLen]byte{0x5E, 0xED, seq}
}

// ParseDiagAck extracts the acknowledged fragment sequence from an AUTS.
func ParseDiagAck(auts []byte) (byte, bool) {
	if len(auts) >= 3 && auts[0] == 0x5E && auts[1] == 0xED {
		return auts[2], true
	}
	return 0, false
}
