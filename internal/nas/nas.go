// Package nas implements an encoder/decoder for the subset of the 5G
// Non-Access-Stratum protocol (3GPP TS 24.501) that SEED's diagnosis and
// handling depend on: the 5GMM registration/authentication/service
// procedures and the 5GSM PDU-session procedures, including the reject
// messages whose embedded cause codes SEED mines, the Authentication
// Request whose RAND/AUTN fields carry SEED's downlink diagnosis channel,
// and the PDU Session Establishment Request whose DNN field carries the
// uplink channel.
//
// The API follows the layered-codec style of gopacket: every message is a
// concrete struct with exported fields; Marshal serializes a Message to
// wire bytes and Unmarshal dispatches on the extended protocol
// discriminator and message type to decode into the right struct. Encoding
// is plain (no NAS security header): the testbed models integrity at the
// SEED envelope layer instead, which is where the paper puts it too.
package nas

import (
	"errors"
	"fmt"
)

// EPD values (extended protocol discriminator, TS 24.007 §11.2.3.1A).
const (
	EPD5GMM byte = 0x7E // mobility management
	EPD5GSM byte = 0x2E // session management
)

// MsgType identifies a NAS message within its EPD space.
type MsgType byte

// 5GMM message types (TS 24.501 Table 9.7.1).
const (
	MTRegistrationRequest    MsgType = 0x41
	MTRegistrationAccept     MsgType = 0x42
	MTRegistrationComplete   MsgType = 0x43
	MTRegistrationReject     MsgType = 0x44
	MTDeregistrationRequest  MsgType = 0x45
	MTDeregistrationAccept   MsgType = 0x46
	MTServiceRequest         MsgType = 0x4C
	MTServiceReject          MsgType = 0x4D
	MTServiceAccept          MsgType = 0x4E
	MTConfigurationUpdateCmd MsgType = 0x54
	MTAuthenticationRequest  MsgType = 0x56
	MTAuthenticationResponse MsgType = 0x57
	MTAuthenticationReject   MsgType = 0x58
	MTAuthenticationFailure  MsgType = 0x59
	MTSecurityModeCommand    MsgType = 0x5D
	MTSecurityModeComplete   MsgType = 0x5E
	MT5GMMStatus             MsgType = 0x64
)

// 5GSM message types (TS 24.501 Table 9.7.2).
const (
	MTPDUSessionEstablishmentRequest MsgType = 0xC1
	MTPDUSessionEstablishmentAccept  MsgType = 0xC2
	MTPDUSessionEstablishmentReject  MsgType = 0xC3
	MTPDUSessionModificationRequest  MsgType = 0xC9
	MTPDUSessionModificationReject   MsgType = 0xCA
	MTPDUSessionModificationCommand  MsgType = 0xCB
	MTPDUSessionModificationComplete MsgType = 0xCC
	MTPDUSessionReleaseRequest       MsgType = 0xD1
	MTPDUSessionReleaseReject        MsgType = 0xD2
	MTPDUSessionReleaseCommand       MsgType = 0xD3
	MTPDUSessionReleaseComplete      MsgType = 0xD4
)

var msgTypeNames = map[byte]map[MsgType]string{
	EPD5GMM: {
		MTRegistrationRequest:    "Registration Request",
		MTRegistrationAccept:     "Registration Accept",
		MTRegistrationComplete:   "Registration Complete",
		MTRegistrationReject:     "Registration Reject",
		MTDeregistrationRequest:  "Deregistration Request",
		MTDeregistrationAccept:   "Deregistration Accept",
		MTServiceRequest:         "Service Request",
		MTServiceReject:          "Service Reject",
		MTServiceAccept:          "Service Accept",
		MTConfigurationUpdateCmd: "Configuration Update Command",
		MTAuthenticationRequest:  "Authentication Request",
		MTAuthenticationResponse: "Authentication Response",
		MTAuthenticationReject:   "Authentication Reject",
		MTAuthenticationFailure:  "Authentication Failure",
		MTSecurityModeCommand:    "Security Mode Command",
		MTSecurityModeComplete:   "Security Mode Complete",
		MT5GMMStatus:             "5GMM Status",
	},
	EPD5GSM: {
		MTPDUSessionEstablishmentRequest: "PDU Session Establishment Request",
		MTPDUSessionEstablishmentAccept:  "PDU Session Establishment Accept",
		MTPDUSessionEstablishmentReject:  "PDU Session Establishment Reject",
		MTPDUSessionModificationRequest:  "PDU Session Modification Request",
		MTPDUSessionModificationReject:   "PDU Session Modification Reject",
		MTPDUSessionModificationCommand:  "PDU Session Modification Command",
		MTPDUSessionModificationComplete: "PDU Session Modification Complete",
		MTPDUSessionReleaseRequest:       "PDU Session Release Request",
		MTPDUSessionReleaseReject:        "PDU Session Release Reject",
		MTPDUSessionReleaseCommand:       "PDU Session Release Command",
		MTPDUSessionReleaseComplete:      "PDU Session Release Complete",
	},
}

// Name returns the human-readable name of a message type in epd space.
func Name(epd byte, mt MsgType) string {
	if n, ok := msgTypeNames[epd][mt]; ok {
		return n
	}
	return fmt.Sprintf("Unknown(epd=%#x,mt=%#x)", epd, byte(mt))
}

// Message is implemented by every NAS message struct.
type Message interface {
	// EPD returns the message's extended protocol discriminator.
	EPD() byte
	// MessageType returns the message type value.
	MessageType() MsgType
	encodeBody(w *writer)
	decodeBody(r *reader)
	// reset returns the message to its zero value for the next decode,
	// keeping the capacity of its slices (see Pool).
	reset()
}

// SessionMessage is implemented by 5GSM messages, which additionally carry
// the PDU session identity and procedure transaction identity header.
type SessionMessage interface {
	Message
	sessionHeader() (pduSessionID, pti uint8)
	setSessionHeader(pduSessionID, pti uint8)
}

// ErrTruncated is wrapped by decode errors caused by short input.
var ErrTruncated = errors.New("nas: message truncated")

// ErrUnknownMessage is wrapped when the message type is not recognized.
var ErrUnknownMessage = errors.New("nas: unknown message type")

// ErrMalformedIE is wrapped when an information element's value does not
// decode cleanly: short sub-fields, trailing garbage inside the declared
// length, or a list value that is not a whole number of elements. Decoders
// reject such messages outright rather than silently truncating to the
// parseable prefix (the 5Greplay fuzzing posture).
var ErrMalformedIE = errors.New("nas: malformed information element")

// Marshal serializes msg to its wire representation.
func Marshal(msg Message) []byte {
	// One right-sized allocation covers almost every NAS message on the
	// testbed (the largest session accepts run ~80 bytes).
	return AppendMarshal(make([]byte, 0, 96), msg)
}

// AppendMarshal serializes msg to its wire representation appended to dst,
// returning the extended slice.
func AppendMarshal(dst []byte, msg Message) []byte {
	w := writer{buf: dst}
	marshal(&w, msg)
	return w.bytes()
}

func marshal(w *writer, msg Message) {
	w.byte(msg.EPD())
	if sm, ok := msg.(SessionMessage); ok {
		id, pti := sm.sessionHeader()
		w.byte(id)
		w.byte(pti)
	} else {
		w.byte(0) // security header type: plain
	}
	w.byte(byte(msg.MessageType()))
	msg.encodeBody(w)
}

// Unmarshal decodes wire bytes into the corresponding message struct. The
// message shares no memory with data: every decoder copies what it keeps,
// so the caller may reuse data's buffer as soon as Unmarshal returns.
func Unmarshal(data []byte) (Message, error) {
	return unmarshal(new(reader), data)
}

// Codec is one endpoint's encoder and decoder state. The package-level
// AppendMarshal and Unmarshal each cost a heap object per call, because
// the writer and reader they hand to the message's encodeBody/decodeBody
// escape through the interface call; an endpoint that signals all the time
// (modem, AMF) keeps a Codec and pays for them once. The zero value is
// ready; a Codec is not safe for concurrent use.
type Codec struct {
	// Pool, when set, is where Unmarshal takes its message structs from;
	// whoever receives the message releases it there (see Pool), and the
	// strings the testbed's endpoints last encoded or decoded (see
	// Pool.intern). Without one every message and every string is
	// allocated, as by the package-level Unmarshal.
	Pool *Pool

	w      writer
	r, sub reader
}

// AppendMarshal is the package-level AppendMarshal on c's writer.
func (c *Codec) AppendMarshal(dst []byte, msg Message) []byte {
	c.w.buf, c.w.pool = dst, c.Pool
	marshal(&c.w, msg)
	dst, c.w.buf = c.w.buf, nil
	return dst
}

// Unmarshal is the package-level Unmarshal on c's readers.
func (c *Codec) Unmarshal(data []byte) (Message, error) {
	c.r.codec = c
	msg, err := unmarshal(&c.r, data)
	c.r.buf, c.sub.buf = nil, nil
	return msg, err
}

func unmarshal(r *reader, data []byte) (Message, error) {
	if len(data) < 3 {
		return nil, fmt.Errorf("%w: %d bytes", ErrTruncated, len(data))
	}
	epd := data[0]
	var pool *Pool
	if r.codec != nil {
		pool = r.codec.Pool
	}
	var msg Message
	var mt MsgType
	var body []byte
	switch epd {
	case EPD5GMM:
		mt, body = MsgType(data[2]), data[3:]
		if msg = pool.get(epd, mt); msg == nil {
			return nil, fmt.Errorf("%w: 5GMM %#x", ErrUnknownMessage, byte(mt))
		}
	case EPD5GSM:
		if len(data) < 4 {
			return nil, fmt.Errorf("%w: 5GSM header needs 4 bytes, got %d", ErrTruncated, len(data))
		}
		mt, body = MsgType(data[3]), data[4:]
		if msg = pool.get(epd, mt); msg == nil {
			return nil, fmt.Errorf("%w: 5GSM %#x", ErrUnknownMessage, byte(mt))
		}
		msg.(SessionMessage).setSessionHeader(data[1], data[2])
	default:
		return nil, fmt.Errorf("%w: EPD %#x", ErrUnknownMessage, epd)
	}
	*r = reader{buf: body, codec: r.codec}
	msg.decodeBody(r)
	if r.err == nil && r.remaining() != 0 {
		r.err = fmt.Errorf("%w: %d trailing bytes after body", ErrMalformedIE, r.remaining())
	}
	if r.err != nil {
		pool.Put(msg) // half decoded: nobody else has seen it
		return nil, fmt.Errorf("nas: decoding %s: %w", Name(epd, mt), r.err)
	}
	return msg, nil
}
