package nas

import "github.com/seed5g/seed/internal/cause"

// Optional IE tags used in 5GSM messages.
const (
	tagSNSSAI       byte = 0x22
	tagDNSServers   byte = 0x25
	tagTFT          byte = 0x36
	tagQoS          byte = 0x79
	tagBackoff      byte = 0x37
	tagSessionDNN   byte = 0x28
	tagSuggestedDNN byte = 0x26
)

func newSMMessage(mt MsgType) SessionMessage {
	switch mt {
	case MTPDUSessionEstablishmentRequest:
		return &PDUSessionEstablishmentRequest{}
	case MTPDUSessionEstablishmentAccept:
		return &PDUSessionEstablishmentAccept{}
	case MTPDUSessionEstablishmentReject:
		return &PDUSessionEstablishmentReject{}
	case MTPDUSessionModificationRequest:
		return &PDUSessionModificationRequest{}
	case MTPDUSessionModificationReject:
		return &PDUSessionModificationReject{}
	case MTPDUSessionModificationCommand:
		return &PDUSessionModificationCommand{}
	case MTPDUSessionModificationComplete:
		return &PDUSessionModificationComplete{}
	case MTPDUSessionReleaseRequest:
		return &PDUSessionReleaseRequest{}
	case MTPDUSessionReleaseReject:
		return &PDUSessionReleaseReject{}
	case MTPDUSessionReleaseCommand:
		return &PDUSessionReleaseCommand{}
	case MTPDUSessionReleaseComplete:
		return &PDUSessionReleaseComplete{}
	default:
		return nil
	}
}

// SMHeader holds the 5GSM per-message header fields shared by all session
// management messages: the PDU session identity and the procedure
// transaction identity.
type SMHeader struct {
	PDUSessionID uint8
	PTI          uint8
}

func (h *SMHeader) sessionHeader() (uint8, uint8) { return h.PDUSessionID, h.PTI }
func (h *SMHeader) setSessionHeader(id, pti uint8) {
	h.PDUSessionID = id
	h.PTI = pti
}

// PDUSessionEstablishmentRequest asks the SMF to set up a data session for
// the given DNN. SEED's uplink diagnosis channel rides in the DNN field:
// a DNN starting with "DIAG" carries a sealed failure-report fragment
// (Fig 7b) instead of naming a real data network.
type PDUSessionEstablishmentRequest struct {
	SMHeader
	SessionType PDUSessionType
	DNN         string
	SNSSAI      *SNSSAI

	// spare is where a released message keeps the S-NSSAI of its last use
	// for the next decode to fill; nil in a message never released.
	spare *SNSSAI
}

func (m *PDUSessionEstablishmentRequest) EPD() byte { return EPD5GSM }
func (m *PDUSessionEstablishmentRequest) MessageType() MsgType {
	return MTPDUSessionEstablishmentRequest
}

// reset keeps the S-NSSAI's storage, in use or spare, for the next decode.
func (m *PDUSessionEstablishmentRequest) reset() {
	*m = PDUSessionEstablishmentRequest{spare: either(m.SNSSAI, m.spare)}
}

func (m *PDUSessionEstablishmentRequest) encodeBody(w *writer) {
	w.byte(byte(m.SessionType))
	w.lvString(m.DNN)
	if m.SNSSAI != nil {
		mark := w.tlvOpen(tagSNSSAI)
		m.SNSSAI.encode(w)
		w.tlvClose(mark)
	}
}

func (m *PDUSessionEstablishmentRequest) decodeBody(r *reader) {
	m.SessionType = PDUSessionType(r.byte())
	m.DNN = r.str(r.lv())
	r.optionals(func(tag byte, val []byte) {
		if tag == tagSNSSAI {
			r.ie(tag, val, func(rr *reader) {
				*part(&m.SNSSAI, &m.spare) = decodeSNSSAI(rr)
			})
		}
	})
}

// PDUSessionEstablishmentAccept confirms session setup and delivers the
// data-plane configuration: the UE address, DNS servers, QoS and TFT.
type PDUSessionEstablishmentAccept struct {
	SMHeader
	SessionType PDUSessionType
	Address     Addr
	DNSServers  []Addr
	QoS         QoS
	TFT         TFT
	DNN         string
}

func (m *PDUSessionEstablishmentAccept) EPD() byte            { return EPD5GSM }
func (m *PDUSessionEstablishmentAccept) MessageType() MsgType { return MTPDUSessionEstablishmentAccept }

func (m *PDUSessionEstablishmentAccept) reset() {
	*m = PDUSessionEstablishmentAccept{DNSServers: m.DNSServers[:0], TFT: TFT{Filters: m.TFT.Filters[:0]}}
}

func (m *PDUSessionEstablishmentAccept) encodeBody(w *writer) {
	w.byte(byte(m.SessionType))
	w.raw(m.Address[:])
	if len(m.DNSServers) > 0 {
		mark := w.tlvOpen(tagDNSServers)
		for _, d := range m.DNSServers {
			w.raw(d[:])
		}
		w.tlvClose(mark)
	}
	mark := w.tlvOpen(tagQoS)
	m.QoS.encode(w)
	w.tlvClose(mark)
	if len(m.TFT.Filters) > 0 {
		mark := w.tlvOpen(tagTFT)
		m.TFT.encode(w)
		w.tlvClose(mark)
	}
	if m.DNN != "" {
		w.tlvString(tagSessionDNN, m.DNN)
	}
}

func (m *PDUSessionEstablishmentAccept) decodeBody(r *reader) {
	m.SessionType = PDUSessionType(r.byte())
	copy(m.Address[:], r.take(4))
	r.optionals(func(tag byte, val []byte) {
		switch tag {
		case tagDNSServers:
			r.ieList(tag, val, func(rr *reader) {
				var a Addr
				copy(a[:], rr.take(4))
				m.DNSServers = append(m.DNSServers, a)
			})
		case tagQoS:
			r.ie(tag, val, func(rr *reader) { m.QoS = decodeQoS(rr) })
		case tagTFT:
			r.ie(tag, val, func(rr *reader) { m.TFT.decode(rr) })
		case tagSessionDNN:
			m.DNN = r.str(val)
		}
	})
}

// PDUSessionEstablishmentReject denies session setup with a standardized
// 5GSM cause — the other message family SEED's diagnosis mines. The SMF
// also uses it (with cause "request rejected") as the ACK for a DIAG-DNN
// uplink report.
type PDUSessionEstablishmentReject struct {
	SMHeader
	Cause          cause.Code
	BackoffSeconds uint32
	SuggestedDNN   string
}

func (m *PDUSessionEstablishmentReject) EPD() byte            { return EPD5GSM }
func (m *PDUSessionEstablishmentReject) MessageType() MsgType { return MTPDUSessionEstablishmentReject }
func (m *PDUSessionEstablishmentReject) reset()               { *m = PDUSessionEstablishmentReject{} }

func (m *PDUSessionEstablishmentReject) encodeBody(w *writer) {
	w.byte(byte(m.Cause))
	if m.BackoffSeconds != 0 {
		mark := w.tlvOpen(tagBackoff)
		w.uint32(m.BackoffSeconds)
		w.tlvClose(mark)
	}
	if m.SuggestedDNN != "" {
		w.tlvString(tagSuggestedDNN, m.SuggestedDNN)
	}
}

func (m *PDUSessionEstablishmentReject) decodeBody(r *reader) {
	m.Cause = cause.Code(r.byte())
	r.optionals(func(tag byte, val []byte) {
		switch tag {
		case tagBackoff:
			r.ie(tag, val, func(rr *reader) { m.BackoffSeconds = rr.uint32() })
		case tagSuggestedDNN:
			m.SuggestedDNN = r.str(val)
		}
	})
}

// PDUSessionModificationRequest asks the network to change session
// parameters (TFT and/or QoS).
type PDUSessionModificationRequest struct {
	SMHeader
	TFT *TFT
	QoS *QoS
}

func (m *PDUSessionModificationRequest) EPD() byte            { return EPD5GSM }
func (m *PDUSessionModificationRequest) MessageType() MsgType { return MTPDUSessionModificationRequest }
func (m *PDUSessionModificationRequest) reset()               { *m = PDUSessionModificationRequest{} }

func (m *PDUSessionModificationRequest) encodeBody(w *writer) {
	if m.TFT != nil {
		mark := w.tlvOpen(tagTFT)
		m.TFT.encode(w)
		w.tlvClose(mark)
	}
	if m.QoS != nil {
		mark := w.tlvOpen(tagQoS)
		m.QoS.encode(w)
		w.tlvClose(mark)
	}
}

func (m *PDUSessionModificationRequest) decodeBody(r *reader) {
	r.optionals(func(tag byte, val []byte) {
		switch tag {
		case tagTFT:
			r.ie(tag, val, func(rr *reader) {
				m.TFT = new(TFT)
				m.TFT.decode(rr)
			})
		case tagQoS:
			r.ie(tag, val, func(rr *reader) {
				q := decodeQoS(rr)
				m.QoS = &q
			})
		}
	})
}

// PDUSessionModificationCommand is the network-initiated session update:
// SEED's B3 "data-plane modification" delivers corrected TFTs, QoS or DNS
// configuration through it without tearing the session down.
type PDUSessionModificationCommand struct {
	SMHeader
	TFT        *TFT
	QoS        *QoS
	DNSServers []Addr

	// spareTFT and spareQoS are where a released message keeps those parts
	// of its last use for the next decode to fill; nil in a message never
	// released.
	spareTFT *TFT
	spareQoS *QoS
}

func (m *PDUSessionModificationCommand) EPD() byte            { return EPD5GSM }
func (m *PDUSessionModificationCommand) MessageType() MsgType { return MTPDUSessionModificationCommand }

func (m *PDUSessionModificationCommand) reset() {
	*m = PDUSessionModificationCommand{
		DNSServers: m.DNSServers[:0],
		spareTFT:   either(m.TFT, m.spareTFT), spareQoS: either(m.QoS, m.spareQoS),
	}
}

func (m *PDUSessionModificationCommand) encodeBody(w *writer) {
	if m.TFT != nil {
		mark := w.tlvOpen(tagTFT)
		m.TFT.encode(w)
		w.tlvClose(mark)
	}
	if m.QoS != nil {
		mark := w.tlvOpen(tagQoS)
		m.QoS.encode(w)
		w.tlvClose(mark)
	}
	if len(m.DNSServers) > 0 {
		mark := w.tlvOpen(tagDNSServers)
		for _, d := range m.DNSServers {
			w.raw(d[:])
		}
		w.tlvClose(mark)
	}
}

func (m *PDUSessionModificationCommand) decodeBody(r *reader) {
	r.optionals(func(tag byte, val []byte) {
		switch tag {
		case tagTFT:
			r.ie(tag, val, func(rr *reader) {
				part(&m.TFT, &m.spareTFT).decode(rr)
			})
		case tagQoS:
			r.ie(tag, val, func(rr *reader) {
				*part(&m.QoS, &m.spareQoS) = decodeQoS(rr)
			})
		case tagDNSServers:
			r.ieList(tag, val, func(rr *reader) {
				var a Addr
				copy(a[:], rr.take(4))
				m.DNSServers = append(m.DNSServers, a)
			})
		}
	})
}

// PDUSessionModificationComplete acknowledges a modification command.
type PDUSessionModificationComplete struct{ SMHeader }

func (m *PDUSessionModificationComplete) EPD() byte { return EPD5GSM }
func (m *PDUSessionModificationComplete) MessageType() MsgType {
	return MTPDUSessionModificationComplete
}
func (m *PDUSessionModificationComplete) reset()             { *m = PDUSessionModificationComplete{} }
func (m *PDUSessionModificationComplete) encodeBody(*writer) {}
func (m *PDUSessionModificationComplete) decodeBody(*reader) {}

// PDUSessionModificationReject denies a modification with a 5GSM cause.
type PDUSessionModificationReject struct {
	SMHeader
	Cause cause.Code
}

func (m *PDUSessionModificationReject) EPD() byte            { return EPD5GSM }
func (m *PDUSessionModificationReject) MessageType() MsgType { return MTPDUSessionModificationReject }
func (m *PDUSessionModificationReject) reset()               { *m = PDUSessionModificationReject{} }
func (m *PDUSessionModificationReject) encodeBody(w *writer) { w.byte(byte(m.Cause)) }
func (m *PDUSessionModificationReject) decodeBody(r *reader) { m.Cause = cause.Code(r.byte()) }

// PDUSessionReleaseRequest is the UE-initiated session teardown.
type PDUSessionReleaseRequest struct {
	SMHeader
	Cause cause.Code
}

func (m *PDUSessionReleaseRequest) EPD() byte            { return EPD5GSM }
func (m *PDUSessionReleaseRequest) MessageType() MsgType { return MTPDUSessionReleaseRequest }
func (m *PDUSessionReleaseRequest) reset()               { *m = PDUSessionReleaseRequest{} }
func (m *PDUSessionReleaseRequest) encodeBody(w *writer) { w.byte(byte(m.Cause)) }
func (m *PDUSessionReleaseRequest) decodeBody(r *reader) { m.Cause = cause.Code(r.byte()) }

// PDUSessionReleaseReject denies a release request.
type PDUSessionReleaseReject struct {
	SMHeader
	Cause cause.Code
}

func (m *PDUSessionReleaseReject) EPD() byte            { return EPD5GSM }
func (m *PDUSessionReleaseReject) MessageType() MsgType { return MTPDUSessionReleaseReject }
func (m *PDUSessionReleaseReject) reset()               { *m = PDUSessionReleaseReject{} }
func (m *PDUSessionReleaseReject) encodeBody(w *writer) { w.byte(byte(m.Cause)) }
func (m *PDUSessionReleaseReject) decodeBody(r *reader) { m.Cause = cause.Code(r.byte()) }

// PDUSessionReleaseCommand is the network-initiated session teardown.
type PDUSessionReleaseCommand struct {
	SMHeader
	Cause cause.Code
}

func (m *PDUSessionReleaseCommand) EPD() byte            { return EPD5GSM }
func (m *PDUSessionReleaseCommand) MessageType() MsgType { return MTPDUSessionReleaseCommand }
func (m *PDUSessionReleaseCommand) reset()               { *m = PDUSessionReleaseCommand{} }
func (m *PDUSessionReleaseCommand) encodeBody(w *writer) { w.byte(byte(m.Cause)) }
func (m *PDUSessionReleaseCommand) decodeBody(r *reader) { m.Cause = cause.Code(r.byte()) }

// PDUSessionReleaseComplete acknowledges a release command.
type PDUSessionReleaseComplete struct{ SMHeader }

func (m *PDUSessionReleaseComplete) EPD() byte            { return EPD5GSM }
func (m *PDUSessionReleaseComplete) MessageType() MsgType { return MTPDUSessionReleaseComplete }
func (m *PDUSessionReleaseComplete) reset()               { *m = PDUSessionReleaseComplete{} }
func (m *PDUSessionReleaseComplete) encodeBody(*writer)   {}
func (m *PDUSessionReleaseComplete) decodeBody(*reader)   {}
