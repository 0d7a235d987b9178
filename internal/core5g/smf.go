package core5g

import (
	"slices"
	"strings"

	"github.com/seed5g/seed/internal/cause"
	"github.com/seed5g/seed/internal/freelist"
	"github.com/seed5g/seed/internal/nas"
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
	k   *sched.Kernel
	gnb RadioAccess
	udm *UDM
	upf *UPF
	inj *Injector

	sessions map[string]map[uint8]*SessionCtx
	// spare are removed sessions kept for the next establishment: a
	// removed session is referenced by nothing (the UPF drops its entry
	// with it).
	spare  freelist.List[SessionCtx]
	nextIP uint16
	// lastIMSI and lastOf remember the latest hit in sessions (see
	// AMF.lastCtx); a UE's inner map, once made, is never removed.
	lastIMSI string
	lastOf   map[uint8]*SessionCtx

	// sender transmits downlink NAS (wired to the AMF so 5GSM messages
	// ride the same security context as 5GMM ones). It encodes before it
	// returns, which is what lets every message be composed in out.
	sender func(imsi string, msg nas.Message)
	out    smfOutbox

	// A forwarded message, which the SMF owns from then on, waits out the
	// processing latency in a pooled hop record armed with dispatchFn;
	// dispatch releases it into msgs, the network's pool.
	msgs       *nas.Pool
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

// smfOutbox holds one of each message the SMF composes (see amfOutbox).
type smfOutbox struct {
	estAcc nas.PDUSessionEstablishmentAccept
	estRej nas.PDUSessionEstablishmentReject
	modCmd nas.PDUSessionModificationCommand
	tft    nas.TFT
	qos    nas.QoS
	modRej nas.PDUSessionModificationReject
	relCmd nas.PDUSessionReleaseCommand
}

// NewSMF creates the SMF; msgs is its network's message pool. Wire the
// downlink path with SetSender before use.
func NewSMF(k *sched.Kernel, gnb RadioAccess, udm *UDM, upf *UPF, inj *Injector, msgs *nas.Pool) *SMF {
	s := &SMF{
		k: k, gnb: gnb, udm: udm, upf: upf, inj: inj,
		sessions: make(map[string]map[uint8]*SessionCtx),
		msgs:     msgs,
	}
	s.dispatchFn = func(v any) {
		imsi, msg := s.hops.release(v.(*nasHop))
		s.dispatch(imsi, msg)
	}
	return s
}

// Stats returns a copy of the counters.
func (s *SMF) Stats() SMFStats { return s.stats }

// Sessions returns the session map for a UE (nil when it never had one).
func (s *SMF) Sessions(imsi string) map[uint8]*SessionCtx {
	if s.lastOf != nil && s.lastIMSI == imsi {
		return s.lastOf
	}
	of := s.sessions[imsi]
	if of != nil {
		s.lastIMSI, s.lastOf = imsi, of
	}
	return of
}

// Session returns one session context. The pointer is good until the
// session is removed: the SMF then recycles the context for a later
// session.
func (s *SMF) Session(imsi string, id uint8) (*SessionCtx, bool) {
	ctx, okC := s.Sessions(imsi)[id]
	return ctx, okC
}

// SetSender wires the downlink NAS transmit path (normally AMF.SendRaw).
func (s *SMF) SetSender(fn func(imsi string, msg nas.Message)) { s.sender = fn }

func (s *SMF) send(imsi string, msg nas.Message) { s.sender(imsi, msg) }

// HandleUplink processes a 5GSM message forwarded by the AMF, and owns it
// from here on.
func (s *SMF) HandleUplink(imsi string, msg nas.Message) {
	s.stats.MessagesIn++
	s.k.AfterArg(smfProc, s.dispatchFn, s.hops.take(imsi, msg))
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
	s.msgs.Put(msg)
}

func (s *SMF) reject(imsi string, hdr nas.SMHeader, code cause.Code, suggested string) {
	s.stats.Rejects++
	if s.OnReject != nil {
		s.OnReject(imsi, code)
	}
	s.out.estRej = nas.PDUSessionEstablishmentReject{
		SMHeader:     hdr,
		Cause:        code,
		SuggestedDNN: suggested,
	}
	s.send(imsi, &s.out.estRej)
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
			s.out.estRej = nas.PDUSessionEstablishmentReject{
				SMHeader: hdr,
				Cause:    cause.SMRequestRejectedUnspec,
			}
			s.send(imsi, &s.out.estRej)
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
	ctx := s.spare.Get()
	*ctx = SessionCtx{
		IMSI:    imsi,
		ID:      req.PDUSessionID,
		DNN:     req.DNN,
		Type:    req.SessionType,
		Address: addr,
		Config:  cfg,
		Diag:    diag,
	}
	of := s.Sessions(imsi)
	if of == nil {
		of = make(map[uint8]*SessionCtx)
		s.sessions[imsi] = of
	}
	of[ctx.ID] = ctx
	s.upf.InstallSession(ctx)
	s.gnb.AddBearer(imsi, ctx.ID)
	s.out.estAcc = nas.PDUSessionEstablishmentAccept{
		SMHeader:    nas.SMHeader{PDUSessionID: req.PDUSessionID, PTI: req.PTI},
		SessionType: req.SessionType,
		Address:     addr,
		DNSServers:  cfg.DNS,
		QoS:         cfg.QoS,
		TFT:         cfg.TFT,
		DNN:         req.DNN,
	}
	s.send(imsi, &s.out.estAcc)
}

func (s *SMF) handleRelease(imsi string, req *nas.PDUSessionReleaseRequest) {
	s.removeSession(imsi, req.PDUSessionID)
	s.out.relCmd = nas.PDUSessionReleaseCommand{
		SMHeader: nas.SMHeader{PDUSessionID: req.PDUSessionID, PTI: req.PTI},
		Cause:    cause.SMRegularDeactivation,
	}
	s.send(imsi, &s.out.relCmd)
}

func (s *SMF) handleModification(imsi string, req *nas.PDUSessionModificationRequest) {
	ctx, okC := s.Session(imsi, req.PDUSessionID)
	if !okC {
		s.stats.Rejects++
		if s.OnReject != nil {
			s.OnReject(imsi, cause.SMPDUSessionDoesNotExist)
		}
		s.out.modRej = nas.PDUSessionModificationReject{
			SMHeader: nas.SMHeader{PDUSessionID: req.PDUSessionID, PTI: req.PTI},
			Cause:    cause.SMPDUSessionDoesNotExist,
		}
		s.send(imsi, &s.out.modRej)
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
	ctx, okC := s.Session(imsi, id)
	if !okC {
		return false
	}
	s.stats.Modification++
	ctx.Config = cfg
	s.upf.InstallSession(ctx)
	s.out.tft, s.out.qos = cfg.TFT, cfg.QoS
	s.out.modCmd = nas.PDUSessionModificationCommand{
		SMHeader:   nas.SMHeader{PDUSessionID: id, PTI: 0},
		TFT:        &s.out.tft,
		QoS:        &s.out.qos,
		DNSServers: cfg.DNS,
	}
	s.send(imsi, &s.out.modCmd)
	return true
}

// ReleaseSessionCmd tears down a session from the network side.
func (s *SMF) ReleaseSessionCmd(imsi string, id uint8) {
	if _, okC := s.Session(imsi, id); !okC {
		return
	}
	s.removeSession(imsi, id)
	s.out.relCmd = nas.PDUSessionReleaseCommand{
		SMHeader: nas.SMHeader{PDUSessionID: id, PTI: 0},
		Cause:    cause.SMRegularDeactivation,
	}
	s.send(imsi, &s.out.relCmd)
}

// SessionIDs returns a UE's session IDs in ascending order.
func (s *SMF) SessionIDs(imsi string) []uint8 {
	return s.appendSessionIDs(make([]uint8, 0, len(s.Sessions(imsi))), imsi)
}

// appendSessionIDs appends a UE's session IDs to ids in ascending order.
func (s *SMF) appendSessionIDs(ids []uint8, imsi string) []uint8 {
	start := len(ids)
	for id := range s.Sessions(imsi) {
		ids = append(ids, id)
	}
	slices.Sort(ids[start:])
	return ids
}

// ReleaseAll drops every session of a UE. With notify, release commands
// are sent; otherwise state is dropped silently (context loss).
func (s *SMF) ReleaseAll(imsi string, notify bool) {
	var buf [8]uint8 // a UE holds a handful of sessions
	for _, id := range s.appendSessionIDs(buf[:0], imsi) {
		if notify {
			s.ReleaseSessionCmd(imsi, id)
		} else {
			s.removeSession(imsi, id)
		}
	}
}

func (s *SMF) removeSession(imsi string, id uint8) {
	ctx, okC := s.Session(imsi, id)
	if !okC {
		return
	}
	s.stats.Releases++
	s.upf.RemoveSession(ctx.Address)
	delete(s.Sessions(imsi), id)
	s.gnb.RemoveBearer(imsi, id)
	s.spare.Put(ctx)
}

// warm makes the session map of every subscriber udm holds and room for
// two of its sessions, ahead of a prototype snapshot (see Network.Warm).
func (s *SMF) warm(udm *UDM) {
	for imsi := range udm.subs {
		if s.sessions[imsi] == nil {
			s.sessions[imsi] = make(map[uint8]*SessionCtx)
		}
	}
	s.spare.Warm(warmSessions)
}
