package nas

import "github.com/seed5g/seed/internal/cause"

// Optional IE tags used in 5GMM messages (values follow TS 24.501 where a
// direct counterpart exists).
const (
	tagRequestedNSSAI byte = 0x2F
	tagLastVisitedTAI byte = 0x52
	tagMMCapability   byte = 0x10
	tagT3512          byte = 0x5E
	tagT3502          byte = 0x16
	tagT3346          byte = 0x5F
	tagAUTS           byte = 0x30
	tagTAIList        byte = 0x54
	tagAllowedNSSAI   byte = 0x15
	tagGUTI           byte = 0x77
)

func newMMMessage(mt MsgType) Message {
	switch mt {
	case MTRegistrationRequest:
		return &RegistrationRequest{}
	case MTRegistrationAccept:
		return &RegistrationAccept{}
	case MTRegistrationComplete:
		return &RegistrationComplete{}
	case MTRegistrationReject:
		return &RegistrationReject{}
	case MTDeregistrationRequest:
		return &DeregistrationRequest{}
	case MTDeregistrationAccept:
		return &DeregistrationAccept{}
	case MTServiceRequest:
		return &ServiceRequest{}
	case MTServiceReject:
		return &ServiceReject{}
	case MTServiceAccept:
		return &ServiceAccept{}
	case MTConfigurationUpdateCmd:
		return &ConfigurationUpdateCommand{}
	case MTAuthenticationRequest:
		return &AuthenticationRequest{}
	case MTAuthenticationResponse:
		return &AuthenticationResponse{}
	case MTAuthenticationReject:
		return &AuthenticationReject{}
	case MTAuthenticationFailure:
		return &AuthenticationFailure{}
	case MTSecurityModeCommand:
		return &SecurityModeCommand{}
	case MTSecurityModeComplete:
		return &SecurityModeComplete{}
	case MT5GMMStatus:
		return &MMStatus{}
	default:
		return nil
	}
}

// Registration types.
const (
	RegInitial  uint8 = 1
	RegMobility uint8 = 2
	RegPeriodic uint8 = 3
)

// RegistrationRequest initiates 5GMM registration (initial attach, mobility
// update after handover, or periodic update).
type RegistrationRequest struct {
	RegistrationType uint8
	Identity         MobileIdentity
	RequestedNSSAI   []SNSSAI
	LastTAI          *TAI
	Capability       []byte
}

func (m *RegistrationRequest) EPD() byte            { return EPD5GMM }
func (m *RegistrationRequest) MessageType() MsgType { return MTRegistrationRequest }

// reset keeps the capacity of what the decoder appends to.
func (m *RegistrationRequest) reset() {
	*m = RegistrationRequest{RequestedNSSAI: m.RequestedNSSAI[:0], Capability: m.Capability[:0]}
}

func (m *RegistrationRequest) encodeBody(w *writer) {
	w.byte(m.RegistrationType)
	m.Identity.encode(w)
	if len(m.RequestedNSSAI) > 0 {
		mark := w.tlvOpen(tagRequestedNSSAI)
		for _, s := range m.RequestedNSSAI {
			s.encode(w)
		}
		w.tlvClose(mark)
	}
	if m.LastTAI != nil {
		mark := w.tlvOpen(tagLastVisitedTAI)
		m.LastTAI.encode(w)
		w.tlvClose(mark)
	}
	if len(m.Capability) > 0 {
		w.tlv(tagMMCapability, m.Capability)
	}
}

func (m *RegistrationRequest) decodeBody(r *reader) {
	m.RegistrationType = r.byte()
	m.Identity = decodeMobileIdentity(r)
	r.optionals(func(tag byte, val []byte) {
		switch tag {
		case tagRequestedNSSAI:
			r.ieList(tag, val, func(rr *reader) {
				m.RequestedNSSAI = append(m.RequestedNSSAI, decodeSNSSAI(rr))
			})
		case tagLastVisitedTAI:
			r.ie(tag, val, func(rr *reader) {
				t := decodeTAI(rr)
				m.LastTAI = &t
			})
		case tagMMCapability:
			m.Capability = append(m.Capability[:0], val...)
		}
	})
}

// RegistrationAccept completes registration, assigning the GUTI and
// registration area.
type RegistrationAccept struct {
	GUTI         MobileIdentity
	TAIList      []TAI
	AllowedNSSAI []SNSSAI
	T3512Seconds uint32
}

func (m *RegistrationAccept) EPD() byte            { return EPD5GMM }
func (m *RegistrationAccept) MessageType() MsgType { return MTRegistrationAccept }

func (m *RegistrationAccept) reset() {
	*m = RegistrationAccept{TAIList: m.TAIList[:0], AllowedNSSAI: m.AllowedNSSAI[:0]}
}

func (m *RegistrationAccept) encodeBody(w *writer) {
	m.GUTI.encode(w)
	if len(m.TAIList) > 0 {
		mark := w.tlvOpen(tagTAIList)
		for _, t := range m.TAIList {
			t.encode(w)
		}
		w.tlvClose(mark)
	}
	if len(m.AllowedNSSAI) > 0 {
		mark := w.tlvOpen(tagAllowedNSSAI)
		for _, s := range m.AllowedNSSAI {
			s.encode(w)
		}
		w.tlvClose(mark)
	}
	if m.T3512Seconds != 0 {
		mark := w.tlvOpen(tagT3512)
		w.uint32(m.T3512Seconds)
		w.tlvClose(mark)
	}
}

func (m *RegistrationAccept) decodeBody(r *reader) {
	m.GUTI = decodeMobileIdentity(r)
	r.optionals(func(tag byte, val []byte) {
		switch tag {
		case tagTAIList:
			r.ieList(tag, val, func(rr *reader) {
				m.TAIList = append(m.TAIList, decodeTAI(rr))
			})
		case tagAllowedNSSAI:
			r.ieList(tag, val, func(rr *reader) {
				m.AllowedNSSAI = append(m.AllowedNSSAI, decodeSNSSAI(rr))
			})
		case tagT3512:
			r.ie(tag, val, func(rr *reader) { m.T3512Seconds = rr.uint32() })
		}
	})
}

// RegistrationComplete acknowledges a Registration Accept.
type RegistrationComplete struct{}

func (m *RegistrationComplete) EPD() byte            { return EPD5GMM }
func (m *RegistrationComplete) MessageType() MsgType { return MTRegistrationComplete }
func (m *RegistrationComplete) reset()               {}
func (m *RegistrationComplete) encodeBody(*writer)   {}
func (m *RegistrationComplete) decodeBody(*reader)   {}

// RegistrationReject aborts registration with a standardized 5GMM cause —
// one of the two message families whose cause codes SEED mines.
type RegistrationReject struct {
	Cause        cause.Code
	T3502Seconds uint32
}

func (m *RegistrationReject) EPD() byte            { return EPD5GMM }
func (m *RegistrationReject) MessageType() MsgType { return MTRegistrationReject }
func (m *RegistrationReject) reset()               { *m = RegistrationReject{} }

func (m *RegistrationReject) encodeBody(w *writer) {
	w.byte(byte(m.Cause))
	if m.T3502Seconds != 0 {
		mark := w.tlvOpen(tagT3502)
		w.uint32(m.T3502Seconds)
		w.tlvClose(mark)
	}
}

func (m *RegistrationReject) decodeBody(r *reader) {
	m.Cause = cause.Code(r.byte())
	r.optionals(func(tag byte, val []byte) {
		if tag == tagT3502 {
			r.ie(tag, val, func(rr *reader) { m.T3502Seconds = rr.uint32() })
		}
	})
}

// DeregistrationRequest detaches the UE.
type DeregistrationRequest struct {
	Identity MobileIdentity
}

func (m *DeregistrationRequest) EPD() byte            { return EPD5GMM }
func (m *DeregistrationRequest) MessageType() MsgType { return MTDeregistrationRequest }
func (m *DeregistrationRequest) reset()               { *m = DeregistrationRequest{} }
func (m *DeregistrationRequest) encodeBody(w *writer) { m.Identity.encode(w) }
func (m *DeregistrationRequest) decodeBody(r *reader) { m.Identity = decodeMobileIdentity(r) }

// DeregistrationAccept acknowledges a Deregistration Request.
type DeregistrationAccept struct{}

func (m *DeregistrationAccept) EPD() byte            { return EPD5GMM }
func (m *DeregistrationAccept) MessageType() MsgType { return MTDeregistrationAccept }
func (m *DeregistrationAccept) reset()               {}
func (m *DeregistrationAccept) encodeBody(*writer)   {}
func (m *DeregistrationAccept) decodeBody(*reader)   {}

// ServiceRequest asks to move from idle to connected.
type ServiceRequest struct {
	Identity MobileIdentity
}

func (m *ServiceRequest) EPD() byte            { return EPD5GMM }
func (m *ServiceRequest) MessageType() MsgType { return MTServiceRequest }
func (m *ServiceRequest) reset()               { *m = ServiceRequest{} }
func (m *ServiceRequest) encodeBody(w *writer) { m.Identity.encode(w) }
func (m *ServiceRequest) decodeBody(r *reader) { m.Identity = decodeMobileIdentity(r) }

// ServiceAccept grants a Service Request.
type ServiceAccept struct{}

func (m *ServiceAccept) EPD() byte            { return EPD5GMM }
func (m *ServiceAccept) MessageType() MsgType { return MTServiceAccept }
func (m *ServiceAccept) reset()               {}
func (m *ServiceAccept) encodeBody(*writer)   {}
func (m *ServiceAccept) decodeBody(*reader)   {}

// ServiceReject denies a Service Request with a 5GMM cause.
type ServiceReject struct {
	Cause        cause.Code
	T3346Seconds uint32 // congestion backoff
}

func (m *ServiceReject) EPD() byte            { return EPD5GMM }
func (m *ServiceReject) MessageType() MsgType { return MTServiceReject }
func (m *ServiceReject) reset()               { *m = ServiceReject{} }

func (m *ServiceReject) encodeBody(w *writer) {
	w.byte(byte(m.Cause))
	if m.T3346Seconds != 0 {
		mark := w.tlvOpen(tagT3346)
		w.uint32(m.T3346Seconds)
		w.tlvClose(mark)
	}
}

func (m *ServiceReject) decodeBody(r *reader) {
	m.Cause = cause.Code(r.byte())
	r.optionals(func(tag byte, val []byte) {
		if tag == tagT3346 {
			r.ie(tag, val, func(rr *reader) { m.T3346Seconds = rr.uint32() })
		}
	})
}

// ConfigurationUpdateCommand pushes updated registration-area or slice
// configuration to the UE.
type ConfigurationUpdateCommand struct {
	TAIList      []TAI
	AllowedNSSAI []SNSSAI
	GUTI         *MobileIdentity
}

func (m *ConfigurationUpdateCommand) EPD() byte            { return EPD5GMM }
func (m *ConfigurationUpdateCommand) MessageType() MsgType { return MTConfigurationUpdateCmd }

func (m *ConfigurationUpdateCommand) reset() {
	*m = ConfigurationUpdateCommand{TAIList: m.TAIList[:0], AllowedNSSAI: m.AllowedNSSAI[:0]}
}

func (m *ConfigurationUpdateCommand) encodeBody(w *writer) {
	if len(m.TAIList) > 0 {
		mark := w.tlvOpen(tagTAIList)
		for _, t := range m.TAIList {
			t.encode(w)
		}
		w.tlvClose(mark)
	}
	if len(m.AllowedNSSAI) > 0 {
		mark := w.tlvOpen(tagAllowedNSSAI)
		for _, s := range m.AllowedNSSAI {
			s.encode(w)
		}
		w.tlvClose(mark)
	}
	if m.GUTI != nil {
		mark := w.tlvOpen(tagGUTI)
		m.GUTI.encode(w)
		w.tlvClose(mark)
	}
}

func (m *ConfigurationUpdateCommand) decodeBody(r *reader) {
	r.optionals(func(tag byte, val []byte) {
		switch tag {
		case tagTAIList:
			r.ieList(tag, val, func(rr *reader) {
				m.TAIList = append(m.TAIList, decodeTAI(rr))
			})
		case tagAllowedNSSAI:
			r.ieList(tag, val, func(rr *reader) {
				m.AllowedNSSAI = append(m.AllowedNSSAI, decodeSNSSAI(rr))
			})
		case tagGUTI:
			r.ie(tag, val, func(rr *reader) {
				id := decodeMobileIdentity(rr)
				m.GUTI = &id
			})
		}
	})
}

// AuthenticationRequest carries the 5G-AKA challenge. SEED's downlink
// diagnosis channel reuses this message: RAND set to the reserved DFlag
// (all 0xFF) marks AUTN as a sealed diagnosis fragment instead of a real
// authentication token (Fig 7a).
type AuthenticationRequest struct {
	NgKSI uint8
	RAND  [16]byte
	AUTN  [16]byte
}

// DFlagRAND is the reserved RAND value marking a diagnosis delivery.
var DFlagRAND = func() [16]byte {
	var r [16]byte
	for i := range r {
		r[i] = 0xFF
	}
	return r
}()

// IsDiagnosis reports whether the request is a SEED diagnosis delivery
// rather than a real authentication challenge.
func (m *AuthenticationRequest) IsDiagnosis() bool { return m.RAND == DFlagRAND }

func (m *AuthenticationRequest) EPD() byte            { return EPD5GMM }
func (m *AuthenticationRequest) MessageType() MsgType { return MTAuthenticationRequest }
func (m *AuthenticationRequest) reset()               { *m = AuthenticationRequest{} }

func (m *AuthenticationRequest) encodeBody(w *writer) {
	w.byte(m.NgKSI)
	w.raw(m.RAND[:])
	w.raw(m.AUTN[:])
}

func (m *AuthenticationRequest) decodeBody(r *reader) {
	m.NgKSI = r.byte()
	copy(m.RAND[:], r.take(16))
	copy(m.AUTN[:], r.take(16))
}

// AuthenticationResponse returns RES to the network.
type AuthenticationResponse struct {
	RES []byte
}

func (m *AuthenticationResponse) EPD() byte            { return EPD5GMM }
func (m *AuthenticationResponse) MessageType() MsgType { return MTAuthenticationResponse }
func (m *AuthenticationResponse) reset()               { *m = AuthenticationResponse{RES: m.RES[:0]} }
func (m *AuthenticationResponse) encodeBody(w *writer) { w.lv(m.RES) }
func (m *AuthenticationResponse) decodeBody(r *reader) {
	m.RES = append(m.RES[:0], r.lv()...)
}

// AuthenticationFailure reports MAC or synch failure; with cause "Synch
// failure" it carries AUTS. SEED reuses the synch-failure path as the ACK
// for a received diagnosis fragment.
type AuthenticationFailure struct {
	Cause cause.Code // MMMACFailure or MMSynchFailure
	AUTS  []byte     // present iff Cause == MMSynchFailure
}

func (m *AuthenticationFailure) EPD() byte            { return EPD5GMM }
func (m *AuthenticationFailure) MessageType() MsgType { return MTAuthenticationFailure }
func (m *AuthenticationFailure) reset()               { *m = AuthenticationFailure{AUTS: m.AUTS[:0]} }

func (m *AuthenticationFailure) encodeBody(w *writer) {
	w.byte(byte(m.Cause))
	if len(m.AUTS) > 0 {
		w.tlv(tagAUTS, m.AUTS)
	}
}

func (m *AuthenticationFailure) decodeBody(r *reader) {
	m.Cause = cause.Code(r.byte())
	r.optionals(func(tag byte, val []byte) {
		if tag == tagAUTS {
			m.AUTS = append(m.AUTS[:0], val...)
		}
	})
}

// AuthenticationReject terminates authentication; the UE must consider the
// USIM invalid for the PLMN.
type AuthenticationReject struct{}

func (m *AuthenticationReject) EPD() byte            { return EPD5GMM }
func (m *AuthenticationReject) MessageType() MsgType { return MTAuthenticationReject }
func (m *AuthenticationReject) reset()               {}
func (m *AuthenticationReject) encodeBody(*writer)   {}
func (m *AuthenticationReject) decodeBody(*reader)   {}

// SecurityModeCommand activates NAS security with the selected algorithms.
type SecurityModeCommand struct {
	Algorithms uint8 // ciphering<<4 | integrity
}

func (m *SecurityModeCommand) EPD() byte            { return EPD5GMM }
func (m *SecurityModeCommand) MessageType() MsgType { return MTSecurityModeCommand }
func (m *SecurityModeCommand) reset()               { *m = SecurityModeCommand{} }
func (m *SecurityModeCommand) encodeBody(w *writer) { w.byte(m.Algorithms) }
func (m *SecurityModeCommand) decodeBody(r *reader) { m.Algorithms = r.byte() }

// SecurityModeComplete acknowledges a Security Mode Command.
type SecurityModeComplete struct{}

func (m *SecurityModeComplete) EPD() byte            { return EPD5GMM }
func (m *SecurityModeComplete) MessageType() MsgType { return MTSecurityModeComplete }
func (m *SecurityModeComplete) reset()               {}
func (m *SecurityModeComplete) encodeBody(*writer)   {}
func (m *SecurityModeComplete) decodeBody(*reader)   {}

// MMStatus reports a 5GMM protocol error (e.g. message type not compatible
// with the protocol state) in either direction.
type MMStatus struct {
	Cause cause.Code
}

func (m *MMStatus) EPD() byte            { return EPD5GMM }
func (m *MMStatus) MessageType() MsgType { return MT5GMMStatus }
func (m *MMStatus) reset()               { *m = MMStatus{} }
func (m *MMStatus) encodeBody(w *writer) { w.byte(byte(m.Cause)) }
func (m *MMStatus) decodeBody(r *reader) { m.Cause = cause.Code(r.byte()) }
