package nas

import "github.com/seed5g/seed/internal/crypto5g"

// Pool is what the signalling endpoints of one testbed share (the core
// network owns it, like the frame pools): the free lists decoded messages
// come from, and the last integrity key expanded. Everything on a testbed
// runs on its one single-threaded kernel, so a Pool needs no locks.
//
// Decoded messages follow the frames' ownership rule. A Codec with a Pool
// takes the struct it decodes into from there; the message then belongs to
// whoever it is handed to, and the last handler to see it releases it with
// Put — after which it must not be read, because the next decode reuses
// it, slices included. A handler that keeps part of a message past its own
// return copies that part (strings are immutable and may be kept as they
// are). Dropping a message instead of releasing it is always safe (the
// collector takes it); releasing one twice never is. Put accepts any
// message, pooled before or not.
//
// The nil *Pool allocates every message and expands every key: it is what
// the package-level Unmarshal and NewSecurityContext run on.
type Pool struct {
	free [poolSlots][]Message

	// Both ends of a NAS association key their security context with the
	// IK of the same AKA run, one right after the other, so the expansion
	// the first one paid for is kept for the second. The kept key is never
	// used to compute a MAC: contexts copy it, which shares its immutable
	// part (the expanded block and the subkeys) and nothing else.
	ik    [16]byte
	key   crypto5g.EIA2Key
	keyed bool

	// names holds the strings the testbed's codecs last encoded or decoded
	// (identities, GUTIs, DNNs). Every string a peer decodes is one the
	// other end has just encoded, so a decode finds it here and allocates
	// no copy: the AMF's fresh GUTI is the modem's too.
	names    [8]string
	nextName uint8

	// onPut, when set, sees every released message instead of the free
	// list. Tests poison through it.
	onPut func(Message)
}

const (
	mmSlots   = int(MT5GMMStatus-MTRegistrationRequest) + 1
	smSlots   = int(MTPDUSessionReleaseComplete-MTPDUSessionEstablishmentRequest) + 1
	poolSlots = mmSlots + smSlots

	// poolCap bounds a free list: what a burst decoded beyond it is left
	// to the collector rather than retained.
	poolCap = 8
)

// slot returns the free list a message type uses, or -1 for a type outside
// both tables (which no constructor knows either).
func slot(epd byte, mt MsgType) int {
	switch {
	case epd == EPD5GMM && mt >= MTRegistrationRequest && mt <= MT5GMMStatus:
		return int(mt - MTRegistrationRequest)
	case epd == EPD5GSM && mt >= MTPDUSessionEstablishmentRequest && mt <= MTPDUSessionReleaseComplete:
		return mmSlots + int(mt-MTPDUSessionEstablishmentRequest)
	}
	return -1
}

// get returns a zero message of the given type, or nil when the type is
// unknown.
func (p *Pool) get(epd byte, mt MsgType) Message {
	if p != nil {
		if i := slot(epd, mt); i >= 0 {
			if n := len(p.free[i]); n > 0 {
				msg := p.free[i][n-1]
				p.free[i][n-1] = nil
				p.free[i] = p.free[i][:n-1]
				return msg
			}
		}
	}
	if epd == EPD5GSM {
		if sm := newSMMessage(mt); sm != nil {
			return sm
		}
		return nil
	}
	return newMMMessage(mt)
}

// Put releases a message the caller owns. A nil message (one the decoder
// rejected) is ignored.
func (p *Pool) Put(msg Message) {
	if p == nil || msg == nil {
		return
	}
	if p.onPut != nil {
		p.onPut(msg)
		return
	}
	i := slot(msg.EPD(), msg.MessageType())
	if i < 0 || len(p.free[i]) >= poolCap {
		return
	}
	msg.reset()
	p.free[i] = append(p.free[i], msg)
}

// warmTypes are the messages of a registration with its AKA, a session
// establishment either way it ends, a diagnosis delivery's acknowledgement
// and a detach: what nearly every run decodes. (Messages without a body
// are missing on purpose: a pointer to an empty struct costs nothing to
// make.)
var warmTypes = [...]struct {
	epd byte
	mt  MsgType
}{
	{EPD5GMM, MTRegistrationRequest}, {EPD5GMM, MTRegistrationAccept}, {EPD5GMM, MTRegistrationReject},
	{EPD5GMM, MTAuthenticationRequest}, {EPD5GMM, MTAuthenticationResponse}, {EPD5GMM, MTAuthenticationFailure},
	{EPD5GMM, MTSecurityModeCommand}, {EPD5GMM, MTDeregistrationRequest},
	{EPD5GSM, MTPDUSessionEstablishmentRequest}, {EPD5GSM, MTPDUSessionEstablishmentAccept},
	{EPD5GSM, MTPDUSessionEstablishmentReject}, {EPD5GSM, MTPDUSessionReleaseCommand},
}

// warmListCap is the room Warm gives every free list: more of one type
// than this released before the next decode is rare on one device.
const warmListCap = 4

// Warm puts one message of each commonly decoded type on its free list, if
// the list is empty, and gives every list room for warmListCap, so that a
// testbed snapshotted afterwards starts every restored run with them: a
// type left out costs an allocation per run, and so does a list that has to
// grow to take a release (the body-less messages' among them).
func (p *Pool) Warm() {
	if cap(p.free[0]) == 0 {
		room := make([]Message, poolSlots*warmListCap)
		for i := range p.free {
			p.free[i] = append(room[i*warmListCap:i*warmListCap:(i+1)*warmListCap], p.free[i]...)
		}
	}
	for _, t := range warmTypes {
		if i := slot(t.epd, t.mt); len(p.free[i]) == 0 {
			p.free[i] = append(p.free[i], (*Pool)(nil).get(t.epd, t.mt))
		}
	}
	// Decoding a message as large as a run's into each warmed one, and
	// releasing it, leaves its lists and optional parts with room.
	c := Codec{Pool: p}
	var wire []byte
	for _, m := range primeMessages() {
		wire = AppendMarshal(wire[:0], m)
		if msg, err := c.Unmarshal(wire); err == nil {
			p.Put(msg)
		}
	}
}

// primeMessages are Warm's messages, one of each warmed type with lists
// and optional parts: two slices, two resolvers, two filters, a 16-byte
// RES and a 14-byte AUTS.
func primeMessages() []Message {
	nssai := []SNSSAI{{SST: 1}, {SST: 2}}
	return []Message{
		&RegistrationRequest{RegistrationType: RegInitial, Identity: MobileIdentity{Type: IdentitySUCI, Value: "0"},
			RequestedNSSAI: nssai, LastTAI: &TAI{}, Capability: make([]byte, 2)},
		&RegistrationAccept{GUTI: MobileIdentity{Type: IdentityGUTI, Value: "0"}, TAIList: make([]TAI, 2), AllowedNSSAI: nssai},
		&AuthenticationResponse{RES: make([]byte, 16)},
		&AuthenticationFailure{Cause: 21, AUTS: make([]byte, 14)},
		&PDUSessionEstablishmentRequest{SessionType: SessionIPv4, DNN: "0", SNSSAI: &nssai[0]},
		&PDUSessionEstablishmentAccept{SessionType: SessionIPv4, DNSServers: make([]Addr, 2),
			TFT: TFT{Filters: make([]PacketFilter, 2)}, DNN: "0"},
	}
}

// hold records s among the pool's strings unless it is there already.
func (p *Pool) hold(s string) {
	if p == nil || s == "" {
		return
	}
	for _, h := range p.names {
		if h == s {
			return
		}
	}
	p.keep(s)
}

// intern returns b as a string, reusing a held one when there is one; a
// new string is held in turn.
func (p *Pool) intern(b []byte) string {
	if p == nil {
		return string(b)
	}
	for _, s := range p.names {
		if s == string(b) { // compares in place
			return s
		}
	}
	s := string(b)
	p.keep(s)
	return s
}

// keep holds s in place of the oldest held string.
func (p *Pool) keep(s string) {
	p.names[p.nextName%uint8(len(p.names))] = s
	p.nextName++
}

// part returns the optional part *p of a message being decoded, attaching
// one first if the message has none: the spare a release kept, else a new
// one.
func part[T any](p, spare **T) *T {
	if *p == nil {
		if *p, *spare = *spare, nil; *p == nil {
			*p = new(T)
		}
	}
	return *p
}

// either returns what a released message keeps as its spare part: the part
// in use, else the spare it already had.
func either[T any](inUse, spare *T) *T {
	if inUse != nil {
		return inUse
	}
	return spare
}

// KeySecurityContext makes c, wherever its holder keeps it, the context
// NewSecurityContext(ik) returns — keyed with ik, both NAS COUNTs and the
// statistics at zero — reusing the pool's kept expansion when ik is the
// key it holds.
func (p *Pool) KeySecurityContext(c *SecurityContext, ik [16]byte) {
	*c = SecurityContext{ik: ik}
	switch {
	case p == nil:
		c.setKey()
	case p.keyed && p.ik == ik:
		c.eia2 = p.key
	default:
		c.setKey()
		p.ik, p.key, p.keyed = ik, c.eia2, true
	}
}
