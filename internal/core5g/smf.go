package core5g

import (
	"sort"
	"strings"
	"time"

	"github.com/seed5g/seed/internal/cause"
	"github.com/seed5g/seed/internal/nas"
	"github.com/seed5g/seed/internal/radio"
	"github.com/seed5g/seed/internal/sched"
)

// DiagDNNPrefix marks SEED uplink channels: a PDU Session Establishment
// Request whose DNN is exactly "DIAG" establishes the bearer-holding
// session of Fig 6; a longer "DIAG…" DNN carries a sealed failure-report
// fragment (Fig 7b) and is answered with a reject-as-ACK.
const DiagDNNPrefix = "DIAG"

// SessionCtx is the SMF's per-session state.
type SessionCtx struct {
	IMSI    string
	ID      uint8
	DNN     string
	Type    nas.PDUSessionType
	Address nas.Addr
	Config  SessionConfig
	Diag    bool // Fig 6 DIAG placeholder session
}

// SMFStats counts SMF activity.
type SMFStats struct {
	MessagesIn   int
	Establishes  int
	Rejects      int
	Releases     int
	Modification int
	DiagReports  int
}

// SMF is the session management function: PDU session lifecycle, the
// data-plane configuration store, and data-plane reject generation.
type SMF struct {
	k    *sched.Kernel
	gnb  RadioAccess
	udm  *UDM
	upf  *UPF
	inj  *Injector
	proc time.Duration

	sessions map[string]map[uint8]*SessionCtx
	nextIP   uint16

	// sender transmits downlink NAS (wired to the AMF so 5GSM messages
	// ride the same security context as 5GMM ones).
	sender func(imsi string, msg nas.Message)

	// A forwarded message waits out the processing latency in a pooled hop
	// record armed with dispatchFn.
	hops       hopPool
	dispatchFn func(any) // arg: *nasHop

	// OnReject observes every composed data-plane reject (SEED plugin hook).
	OnReject func(imsi string, code cause.Code)
	// OnDiagReport consumes a SEED uplink report fragment carried in a
	// DIAG DNN. The fragment is ACKed with a reject regardless.
	OnDiagReport func(imsi string, payload []byte)
	// OnTimeoutDrop observes silently dropped procedures.
	OnTimeoutDrop func(imsi string)
	// AllowDiagSessions gates Fig 6 DIAG placeholder sessions (enabled by
	// the SEED plugin; a stock core rejects the unknown DNN).
	AllowDiagSessions bool

	stats SMFStats
}

// NewSMF creates the SMF.
func NewSMF(k *sched.Kernel, gnb RadioAccess, udm *UDM, upf *UPF, inj *Injector, proc time.Duration) *SMF {
	s := &SMF{
		k: k, gnb: gnb, udm: udm, upf: upf, inj: inj, proc: proc,
		sessions: make(map[string]map[uint8]*SessionCtx),
	}
	s.dispatchFn = func(v any) {
		imsi, msg := s.hops.release(v.(*nasHop))
		s.dispatch(imsi, msg)
	}
	return s
}

// Stats returns a copy of the counters.
func (s *SMF) Stats() SMFStats { return s.stats }

// Sessions returns the session map for a UE.
func (s *SMF) Sessions(imsi string) map[uint8]*SessionCtx { return s.sessions[imsi] }

// Session returns one session context.
func (s *SMF) Session(imsi string, id uint8) (*SessionCtx, bool) {
	ctx, okC := s.sessions[imsi][id]
	return ctx, okC
}

// SetSender wires the downlink NAS transmit path (normally AMF.SendRaw).
func (s *SMF) SetSender(fn func(imsi string, msg nas.Message)) { s.sender = fn }

func (s *SMF) send(imsi string, msg nas.Message) {
	if s.sender != nil {
		s.sender(imsi, msg)
		return
	}
	s.gnb.SendNAS(&radio.NAS{UE: imsi, Bytes: nas.Marshal(msg)})
}

// HandleUplink processes a 5GSM message forwarded by the AMF.
func (s *SMF) HandleUplink(imsi string, msg nas.Message) {
	s.stats.MessagesIn++
	s.k.AfterArg(s.proc, s.dispatchFn, s.hops.take(imsi, msg))
}

func (s *SMF) dispatch(imsi string, msg nas.Message) {
	switch t := msg.(type) {
	case *nas.PDUSessionEstablishmentRequest:
		s.handleEstablishment(imsi, t)
	case *nas.PDUSessionReleaseRequest:
		s.handleRelease(imsi, t)
	case *nas.PDUSessionModificationRequest:
		s.handleModification(imsi, t)
	case *nas.PDUSessionModificationComplete, *nas.PDUSessionReleaseComplete:
		// procedure confirmations
	}
}

func (s *SMF) reject(imsi string, hdr nas.SMHeader, code cause.Code, suggested string) {
	s.stats.Rejects++
	if s.OnReject != nil {
		s.OnReject(imsi, code)
	}
	s.send(imsi, &nas.PDUSessionEstablishmentReject{
		SMHeader:     hdr,
		Cause:        code,
		SuggestedDNN: suggested,
	})
}

func (s *SMF) handleEstablishment(imsi string, req *nas.PDUSessionEstablishmentRequest) {
	hdr := nas.SMHeader{PDUSessionID: req.PDUSessionID, PTI: req.PTI}

	// SEED uplink channels.
	if strings.HasPrefix(req.DNN, DiagDNNPrefix) {
		if len(req.DNN) > len(DiagDNNPrefix) {
			// Fig 7b: report fragment; ACK with a reject.
			s.stats.DiagReports++
			if s.OnDiagReport != nil {
				s.OnDiagReport(imsi, []byte(req.DNN[len(DiagDNNPrefix):]))
			}
			s.send(imsi, &nas.PDUSessionEstablishmentReject{
				SMHeader: hdr,
				Cause:    cause.SMRequestRejectedUnspec,
			})
			return
		}
		if s.AllowDiagSessions {
			// Fig 6: placeholder session holding the radio bearer.
			s.establish(imsi, req, SessionConfig{QoS: nas.QoS{FiveQI: 9}}, true)
			return
		}
		s.reject(imsi, hdr, cause.SMMissingOrUnknownDNN, "")
		return
	}

	if rule := s.inj.Match(imsi, cause.DataPlane); rule != nil {
		if rule.Silent {
			if s.OnTimeoutDrop != nil {
				s.OnTimeoutDrop(imsi)
			}
			return
		}
		s.reject(imsi, hdr, rule.Cause, "")
		return
	}

	sub, okS := s.udm.Subscriber(imsi)
	if !okS {
		s.reject(imsi, hdr, cause.SMUserAuthFailed, "")
		return
	}
	if !sub.PlanActive {
		// Expired subscription: recoverable only by user action (§7.1.1).
		s.reject(imsi, hdr, cause.SMUserAuthFailed, "")
		return
	}
	cfg, known := sub.Sessions[req.DNN]
	switch {
	case req.DNN == "":
		s.reject(imsi, hdr, cause.SMInvalidMandatoryInfo, sub.DefaultDNN)
		return
	case !known:
		// Unknown DNN: the classic outdated-APN failure. The reject
		// carries the subscription's default as the suggested config.
		s.reject(imsi, hdr, cause.SMMissingOrUnknownDNN, sub.DefaultDNN)
		return
	case !sub.AllowsDNN(req.DNN):
		s.reject(imsi, hdr, cause.SMServiceOptionNotSubscribed, sub.DefaultDNN)
		return
	}
	s.establish(imsi, req, cfg, false)
}

func (s *SMF) establish(imsi string, req *nas.PDUSessionEstablishmentRequest, cfg SessionConfig, diag bool) {
	s.stats.Establishes++
	s.nextIP++
	addr := nas.Addr{10, 45, byte(s.nextIP >> 8), byte(s.nextIP)}
	ctx := &SessionCtx{
		IMSI:    imsi,
		ID:      req.PDUSessionID,
		DNN:     req.DNN,
		Type:    req.SessionType,
		Address: addr,
		Config:  cfg,
		Diag:    diag,
	}
	if s.sessions[imsi] == nil {
		s.sessions[imsi] = make(map[uint8]*SessionCtx)
	}
	s.sessions[imsi][ctx.ID] = ctx
	s.upf.InstallSession(ctx)
	s.gnb.AddBearer(imsi, ctx.ID)
	s.send(imsi, &nas.PDUSessionEstablishmentAccept{
		SMHeader:    nas.SMHeader{PDUSessionID: req.PDUSessionID, PTI: req.PTI},
		SessionType: req.SessionType,
		Address:     addr,
		DNSServers:  cfg.DNS,
		QoS:         cfg.QoS,
		TFT:         cfg.TFT,
		DNN:         req.DNN,
	})
}

func (s *SMF) handleRelease(imsi string, req *nas.PDUSessionReleaseRequest) {
	s.removeSession(imsi, req.PDUSessionID)
	s.send(imsi, &nas.PDUSessionReleaseCommand{
		SMHeader: nas.SMHeader{PDUSessionID: req.PDUSessionID, PTI: req.PTI},
		Cause:    cause.SMRegularDeactivation,
	})
}

func (s *SMF) handleModification(imsi string, req *nas.PDUSessionModificationRequest) {
	ctx, okC := s.sessions[imsi][req.PDUSessionID]
	if !okC {
		s.stats.Rejects++
		if s.OnReject != nil {
			s.OnReject(imsi, cause.SMPDUSessionDoesNotExist)
		}
		s.send(imsi, &nas.PDUSessionModificationReject{
			SMHeader: nas.SMHeader{PDUSessionID: req.PDUSessionID, PTI: req.PTI},
			Cause:    cause.SMPDUSessionDoesNotExist,
		})
		return
	}
	// The network answers with its *authoritative* parameters from the
	// subscription database — which is how a modification request repairs
	// a corrupted deployed configuration (SEED B3 modification).
	cfg := ctx.Config
	if sub, okS := s.udm.Subscriber(imsi); okS {
		if authoritative, okD := sub.Sessions[ctx.DNN]; okD {
			cfg = authoritative
		}
	}
	s.PushModification(imsi, ctx.ID, cfg)
}

// PushModification sends a network-initiated PDU Session Modification
// Command carrying cfg and updates the UPF state (SEED B3 "data-plane
// modification").
func (s *SMF) PushModification(imsi string, id uint8, cfg SessionConfig) bool {
	ctx, okC := s.sessions[imsi][id]
	if !okC {
		return false
	}
	s.stats.Modification++
	ctx.Config = cfg
	s.upf.InstallSession(ctx)
	tft := cfg.TFT
	qos := cfg.QoS
	s.send(imsi, &nas.PDUSessionModificationCommand{
		SMHeader:   nas.SMHeader{PDUSessionID: id, PTI: 0},
		TFT:        &tft,
		QoS:        &qos,
		DNSServers: cfg.DNS,
	})
	return true
}

// ReleaseSessionCmd tears down a session from the network side.
func (s *SMF) ReleaseSessionCmd(imsi string, id uint8) {
	if _, okC := s.sessions[imsi][id]; !okC {
		return
	}
	s.removeSession(imsi, id)
	s.send(imsi, &nas.PDUSessionReleaseCommand{
		SMHeader: nas.SMHeader{PDUSessionID: id, PTI: 0},
		Cause:    cause.SMRegularDeactivation,
	})
}

// SessionIDs returns a UE's session IDs in ascending order.
func (s *SMF) SessionIDs(imsi string) []uint8 {
	ids := make([]uint8, 0, len(s.sessions[imsi]))
	for id := range s.sessions[imsi] {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// ReleaseAll drops every session of a UE. With notify, release commands
// are sent; otherwise state is dropped silently (context loss).
func (s *SMF) ReleaseAll(imsi string, notify bool) {
	for _, id := range s.SessionIDs(imsi) {
		if notify {
			s.ReleaseSessionCmd(imsi, id)
		} else {
			s.removeSession(imsi, id)
		}
	}
}

func (s *SMF) removeSession(imsi string, id uint8) {
	ctx, okC := s.sessions[imsi][id]
	if !okC {
		return
	}
	s.stats.Releases++
	s.upf.RemoveSession(ctx.Address)
	delete(s.sessions[imsi], id)
	s.gnb.RemoveBearer(imsi, id)
}
