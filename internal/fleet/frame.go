package fleet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"

	"github.com/seed5g/seed/internal/cause"
	"github.com/seed5g/seed/internal/core"
)

// The fleet wire protocol is length-prefixed binary frames over TCP:
//
//	MAGIC(2)=0x5E 0xED | VER(1)=1 | TYPE(1) | LEN(4, big-endian) | PAYLOAD
//
// The pipelining contract: a connection may carry any number of
// outstanding requests; every request frame receives exactly one response
// frame on the same connection; responses arrive in request order. A
// response therefore needs no request ID — the n-th response answers the
// n-th request — and a peer that writes one frame and reads one frame at
// a time is simply the depth-one case. A response with no request
// outstanding is a protocol error that ends the connection. LEN covers
// the payload only and is bounded by the decoder's max-frame limit — an
// oversized, truncated, or malformed frame is an error, never a panic
// (the 5Greplay property the fuzz tests enforce), on a multiplexed
// stream as on a serial one.

// FrameType identifies a fleet frame.
type FrameType uint8

const (
	// TUpload carries a device's sealed learning-record blob:
	// imsiLen(1) | imsi | sealed.
	TUpload FrameType = 0x01
	// TReport carries a sealed report.FailureReport: imsiLen(1) | imsi | sealed.
	TReport FrameType = 0x02
	// TQuery asks the model for a suggestion (the model-push leg):
	// imsiLen(1) | imsi | plane(1) | code(1).
	TQuery FrameType = 0x03
	// TModelPull requests the canonical serialized aggregate model (admin).
	TModelPull FrameType = 0x04
	// TStatsPull requests server counters as JSON (admin).
	TStatsPull FrameType = 0x05
	// 0x06–0x09 and 0x86–0x88 were the multi-node tier's map, rebalance
	// and redirect frames. They are not reused: a server answers them, like
	// any other unknown request type, with TErr.

	// TAck acknowledges an upload or report: the payload is folded.
	TAck FrameType = 0x81
	// TRetryAfter is the backpressure response, mirroring the paper's
	// congestion diagnosis: wait millis(4, BE) before retrying.
	TRetryAfter FrameType = 0x82
	// TSuggest answers a TQuery: a sealed DiagMessage (downlink direction),
	// or empty when the model abstains.
	TSuggest FrameType = 0x83
	// TModel answers a TModelPull with MarshalModel bytes.
	TModel FrameType = 0x84
	// TStats answers a TStatsPull with JSON counters.
	TStats FrameType = 0x85
	// TErr reports a request failure; the payload is the message.
	TErr FrameType = 0xFF
)

func (t FrameType) String() string {
	switch t {
	case TUpload:
		return "upload"
	case TReport:
		return "report"
	case TQuery:
		return "query"
	case TModelPull:
		return "model-pull"
	case TStatsPull:
		return "stats-pull"
	case TAck:
		return "ack"
	case TRetryAfter:
		return "retry-after"
	case TSuggest:
		return "suggest"
	case TModel:
		return "model"
	case TStats:
		return "stats"
	case TErr:
		return "err"
	default:
		return fmt.Sprintf("FrameType(%#02x)", uint8(t))
	}
}

const (
	frameMagic0 = 0x5E
	frameMagic1 = 0xED
	frameVer    = 1
	headerLen   = 8

	// DefaultMaxFrame bounds a frame payload. Record blobs are 5 bytes per
	// (cause, action) row and reports fit in well under 1 KiB sealed, so
	// 256 KiB leaves generous headroom for model pulls on big fleets.
	DefaultMaxFrame = 256 << 10

	// MaxIMSILen bounds the IMSI field of request payloads (15 digits per
	// E.212; allow headroom for test identities).
	MaxIMSILen = 32
)

// Frame is one decoded wire frame.
type Frame struct {
	Type    FrameType
	Payload []byte
}

// ErrFrameTooLarge is returned when a frame header announces a payload
// beyond the decoder's limit.
var ErrFrameTooLarge = errors.New("fleet: frame exceeds max size")

// AppendFrame appends the encoded frame to dst and returns it.
func AppendFrame(dst []byte, f Frame) []byte {
	dst = append(dst, frameMagic0, frameMagic1, frameVer, byte(f.Type))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(f.Payload)))
	return append(dst, f.Payload...)
}

// ReadFrame reads and validates one frame, rejecting bad magic, unknown
// versions, and payloads larger than maxFrame. It returns io.EOF only on
// a clean boundary (no bytes read); a frame truncated mid-way is
// io.ErrUnexpectedEOF.
func ReadFrame(r io.Reader, maxFrame uint32) (Frame, error) {
	f, _, err := readFrame(r, maxFrame, nil)
	return f, err
}

// readFrame is ReadFrame reading the frame, header and payload, into buf,
// which it grows when the frame does not fit and returns: a reader that
// passes the returned buffer back for its next frame reads without
// allocating. The payload aliases the buffer.
func readFrame(r io.Reader, maxFrame uint32, buf []byte) (Frame, []byte, error) {
	buf = slices.Grow(buf[:0], headerLen)[:headerLen]
	if _, err := io.ReadFull(r, buf[:1]); err != nil {
		return Frame{}, buf, err // io.EOF here is a clean close
	}
	if _, err := io.ReadFull(r, buf[1:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, buf, err
	}
	if buf[0] != frameMagic0 || buf[1] != frameMagic1 {
		return Frame{}, buf, fmt.Errorf("fleet: bad frame magic %#02x%02x", buf[0], buf[1])
	}
	if buf[2] != frameVer {
		return Frame{}, buf, fmt.Errorf("fleet: unsupported frame version %d", buf[2])
	}
	n := binary.BigEndian.Uint32(buf[4:])
	if n > maxFrame {
		return Frame{}, buf, fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, n, maxFrame)
	}
	f := Frame{Type: FrameType(buf[3])}
	if n > 0 {
		end := headerLen + int(n)
		buf = slices.Grow(buf, int(n))[:end]
		f.Payload = buf[headerLen:end:end]
		if _, err := io.ReadFull(r, f.Payload); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return Frame{}, buf, err
		}
	}
	return f, buf, nil
}

// frameBuffered reports whether br already holds the next frame whole, so
// that ReadFrame will not touch the connection. The pipelined read loops
// re-arm their read deadline only when it returns false: a deadline is
// consulted by reads that reach the socket, and every such read then
// carries a fresh one.
func frameBuffered(br *bufio.Reader) bool {
	if br.Buffered() < headerLen {
		return false
	}
	hdr, _ := br.Peek(headerLen)
	return uint64(br.Buffered()-headerLen) >= uint64(binary.BigEndian.Uint32(hdr[4:]))
}

// --- request payload codecs ----------------------------------------------

// AppendSealedPayload encodes imsiLen(1) | imsi | sealed (TUpload/TReport).
func AppendSealedPayload(dst []byte, imsi string, sealed []byte) []byte {
	dst = append(dst, byte(len(imsi)))
	dst = append(dst, imsi...)
	return append(dst, sealed...)
}

// ParseSealedPayload decodes a TUpload/TReport payload.
func ParseSealedPayload(p []byte) (imsi string, sealed []byte, err error) {
	b, sealed, err := parseSealed(p)
	return string(b), sealed, err
}

// parseSealed is ParseSealedPayload leaving the IMSI in p.
func parseSealed(p []byte) (imsi, sealed []byte, err error) {
	n, err := imsiLen(p, "sealed")
	if err != nil {
		return nil, nil, err
	}
	if len(p) < 1+n {
		return nil, nil, fmt.Errorf("fleet: sealed payload truncated: IMSI needs %d bytes, have %d", n, len(p)-1)
	}
	return p[1 : 1+n], p[1+n:], nil
}

// AppendQueryPayload encodes imsiLen(1) | imsi | plane(1) | code(1).
func AppendQueryPayload(dst []byte, imsi string, c cause.Cause) []byte {
	dst = append(dst, byte(len(imsi)))
	dst = append(dst, imsi...)
	return append(dst, byte(c.Plane), byte(c.Code))
}

// ParseQueryPayload decodes a TQuery payload.
func ParseQueryPayload(p []byte) (imsi string, c cause.Cause, err error) {
	b, c, err := parseQuery(p)
	return string(b), c, err
}

// parseQuery is ParseQueryPayload leaving the IMSI in p.
func parseQuery(p []byte) (imsi []byte, c cause.Cause, err error) {
	n, err := imsiLen(p, "query")
	if err != nil {
		return nil, c, err
	}
	if len(p) != 1+n+2 {
		return nil, c, fmt.Errorf("fleet: query payload length %d, want %d", len(p), 1+n+2)
	}
	return p[1 : 1+n], cause.Cause{Plane: cause.Plane(p[1+n]), Code: cause.Code(p[2+n])}, nil
}

// imsiLen checks the IMSI length byte that starts a what payload.
func imsiLen(p []byte, what string) (int, error) {
	if len(p) < 1 {
		return 0, fmt.Errorf("fleet: empty %s payload", what)
	}
	n := int(p[0])
	if n == 0 || n > MaxIMSILen {
		return 0, fmt.Errorf("fleet: bad IMSI length %d", n)
	}
	return n, nil
}

// RetryAfterPayload encodes the backpressure wait hint.
func RetryAfterPayload(millis uint32) []byte {
	return binary.BigEndian.AppendUint32(nil, millis)
}

// ParseRetryAfter decodes a TRetryAfter payload.
func ParseRetryAfter(p []byte) (uint32, error) {
	if len(p) != 4 {
		return 0, fmt.Errorf("fleet: retry-after payload length %d, want 4", len(p))
	}
	return binary.BigEndian.Uint32(p), nil
}

// CounterEntry is one subscriber's envelope counter state: the entire
// mutable half of the sealed channel (the key is re-derived from the
// master key). Counter tables are the envelope half of shard snapshots,
// and the body of legacy jInstall journal records.
type CounterEntry struct {
	IMSI string
	// Send and Recv are indexed by crypto5g.Direction (Uplink=0, Downlink=1).
	Send, Recv [2]uint32
}

// AppendCounterTable encodes entries as n(4, BE) then, per entry,
// imsiLen(1) | imsi | sendUp(4) sendDn(4) recvUp(4) recvDn(4). Entries
// are sorted (stably) by IMSI so equal tables produce equal bytes.
func AppendCounterTable(dst []byte, entries []CounterEntry) []byte {
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].IMSI < entries[j].IMSI })
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(entries)))
	for _, e := range entries {
		dst = append(dst, byte(len(e.IMSI)))
		dst = append(dst, e.IMSI...)
		for _, c := range [4]uint32{e.Send[0], e.Send[1], e.Recv[0], e.Recv[1]} {
			dst = binary.BigEndian.AppendUint32(dst, c)
		}
	}
	return dst
}

// minCounterEntry is the smallest encoded counter-table entry: a one-byte
// IMSI and its four counters.
const minCounterEntry = 1 + 1 + 16

// ParseCounterTable decodes a counter table that fills p exactly: a
// jInstall journal body.
func ParseCounterTable(p []byte) ([]CounterEntry, error) {
	entries, rest, err := cutCounterTable(p)
	if err == nil && len(rest) != 0 {
		return nil, fmt.Errorf("fleet: %d trailing bytes after counter table", len(rest))
	}
	return entries, err
}

// cutCounterTable decodes the counter table at the front of p and returns
// the bytes after it. The entry count is untrusted: one larger than the
// remaining bytes can hold is refused before anything is allocated. The
// IMSIs must be in AppendCounterTable's order, so an accepted table
// re-encodes to the bytes it was read from.
func cutCounterTable(p []byte) ([]CounterEntry, []byte, error) {
	if len(p) < 4 {
		return nil, nil, errors.New("fleet: counter table too short")
	}
	n := binary.BigEndian.Uint32(p)
	p = p[4:]
	if uint64(n) > uint64(len(p)/minCounterEntry) {
		return nil, nil, fmt.Errorf("fleet: counter table claims %d entries in %d bytes", n, len(p))
	}
	entries := make([]CounterEntry, 0, n)
	for i := range int(n) {
		if len(p) < minCounterEntry {
			return nil, nil, fmt.Errorf("fleet: counter table truncated at entry %d", i)
		}
		l := int(p[0])
		if l == 0 || l > MaxIMSILen {
			return nil, nil, fmt.Errorf("fleet: counter table entry %d: bad IMSI length %d", i, l)
		}
		if len(p) < 1+l+16 {
			return nil, nil, fmt.Errorf("fleet: counter table truncated at entry %d", i)
		}
		e := CounterEntry{IMSI: string(p[1 : 1+l])}
		if i > 0 && e.IMSI < entries[i-1].IMSI {
			return nil, nil, fmt.Errorf("fleet: counter table entry %d out of IMSI order", i)
		}
		c := p[1+l:]
		e.Send[0] = binary.BigEndian.Uint32(c[0:4])
		e.Send[1] = binary.BigEndian.Uint32(c[4:8])
		e.Recv[0] = binary.BigEndian.Uint32(c[8:12])
		e.Recv[1] = binary.BigEndian.Uint32(c[12:16])
		entries = append(entries, e)
		p = p[1+l+16:]
	}
	return entries, p, nil
}

// SuggestPayload converts a learner decision into the TSuggest plaintext:
// a core.DiagMessage of kind DiagSuggestAction, the same assistance shape
// the in-process AUTN channel delivers.
func SuggestPayload(c cause.Cause, a core.ActionID) []byte { return appendSuggest(nil, c, a) }

// suggestLen is the length of a SuggestPayload.
const suggestLen = 4

// appendSuggest is SuggestPayload appending to dst.
func appendSuggest(dst []byte, c cause.Cause, a core.ActionID) []byte {
	return core.DiagMessage{
		Kind: core.DiagSuggestAction, Plane: c.Plane, Code: c.Code, Action: a,
	}.AppendMarshal(dst)
}
