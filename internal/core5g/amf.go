package core5g

import (
	"fmt"
	"time"

	"github.com/seed5g/seed/internal/cause"
	"github.com/seed5g/seed/internal/crypto5g"
	"github.com/seed5g/seed/internal/nas"
	"github.com/seed5g/seed/internal/radio"
	"github.com/seed5g/seed/internal/sched"
)

// UEContext is the AMF's per-UE registration state.
type UEContext struct {
	IMSI       string
	GUTI       string
	Registered bool

	authRAND    [16]byte
	authXRES    [8]byte
	authIK      [16]byte
	authPending bool
	postAuth    func()

	// sec is the active NAS security context (nil before Security Mode).
	sec *nas.SecurityContext

	// diagPending marks that a SEED diagnosis delivery is outstanding and
	// the next synch-failure from this UE is its ACK, not a real resync.
	diagPending bool
}

// AMFStats counts AMF activity for the load model.
type AMFStats struct {
	MessagesIn   int
	MessagesOut  int
	Registers    int
	Rejects      int
	AuthRounds   int
	DiagMessages int
}

// AMF is the access and mobility function: registration, authentication,
// service requests, and the reject generation whose cause codes SEED's
// infrastructure plugin hooks (§6 "hooks the reject generation functions").
type AMF struct {
	k    *sched.Kernel
	gnb  RadioAccess
	udm  *UDM
	smf  *SMF
	inj  *Injector
	proc time.Duration // per-message processing latency

	ctxs      map[string]*UEContext
	gutiIndex map[string]string
	gutiSeq   int

	// Signalling fast path (radio.NAS has the ownership rule): a downlink
	// is encoded into a frame from frames, which is also where uplink
	// frames end once decoded; codec is the one encoder/decoder state, and
	// encScratch backs the plain encoding of protected downlinks (the
	// security layer copies it into the frame). A decoded uplink waits out
	// the processing latency in a pooled hop record armed with dispatchFn.
	frames     radio.NASPool
	codec      nas.Codec
	encScratch []byte
	hops       hopPool
	dispatchFn func(any) // arg: *nasHop

	// OnReject, when set (by the SEED plugin), observes every composed
	// control-plane reject before it is sent.
	OnReject func(imsi string, code cause.Code)
	// OnDiagAck consumes a diagnosis ACK (the AUTS of a synch failure
	// while a diagnosis was pending).
	OnDiagAck func(imsi string, auts []byte)
	// OnTimeoutDrop observes procedures silently dropped by injection
	// (the infrastructure's passive "without device response" branch).
	OnTimeoutDrop func(imsi string)

	stats AMFStats
}

// NewAMF creates the AMF. Wire SMF with SetSMF before use.
func NewAMF(k *sched.Kernel, gnb RadioAccess, udm *UDM, inj *Injector, proc time.Duration) *AMF {
	a := &AMF{
		k: k, gnb: gnb, udm: udm, inj: inj, proc: proc,
		ctxs:      make(map[string]*UEContext),
		gutiIndex: make(map[string]string),
	}
	a.dispatchFn = func(v any) {
		imsi, msg := a.hops.release(v.(*nasHop))
		a.dispatch(imsi, msg)
	}
	return a
}

// SetSMF wires the session management function.
func (a *AMF) SetSMF(s *SMF) { a.smf = s }

// Stats returns a copy of the counters.
func (a *AMF) Stats() AMFStats { return a.stats }

// Context returns the UE context for an IMSI.
func (a *AMF) Context(imsi string) (*UEContext, bool) {
	c, okC := a.ctxs[imsi]
	return c, okC
}

// SecurityActive reports whether a NAS security context is established
// for the UE, and how many messages it protected/verified.
func (a *AMF) SecurityActive(imsi string) (active bool, protected, verified int) {
	c, okC := a.ctxs[imsi]
	if !okC || c.sec == nil {
		return false, 0, 0
	}
	out, in := c.sec.Stats()
	return true, out, in
}

// Registered reports whether the UE is currently registered.
func (a *AMF) Registered(imsi string) bool {
	c, okC := a.ctxs[imsi]
	return okC && c.Registered
}

// DesyncIdentity drops the GUTI mapping and registration context for a UE
// without telling it — the tracking-area state-sync failure of Table 1
// ("UE identity cannot be derived by the network").
func (a *AMF) DesyncIdentity(imsi string) {
	if c, okC := a.ctxs[imsi]; okC {
		delete(a.gutiIndex, c.GUTI)
	}
	delete(a.ctxs, imsi)
}

// DropUEContext implicitly deregisters a UE (e.g. after its last radio
// bearer was released). The UE is not notified — it discovers via a
// cause-9 reject on its next signaling, exactly the desync class §3.1
// describes.
func (a *AMF) DropUEContext(imsi string) {
	c, okC := a.ctxs[imsi]
	if !okC {
		return
	}
	if c.authPending {
		// A fresh registration is already in flight (the drop arrived
		// late, e.g. from a bearer release racing a reattach); clobbering
		// it would silently kill the procedure.
		return
	}
	delete(a.gutiIndex, c.GUTI)
	delete(a.ctxs, imsi)
	if a.smf != nil {
		a.smf.ReleaseAll(imsi, false)
	}
}

// MarkDiagPending flags that the next synch failure from the UE is a
// diagnosis ACK (set by the SEED plugin when it sends a DFlag delivery).
func (a *AMF) MarkDiagPending(imsi string) {
	c := a.ctx(imsi)
	c.diagPending = true
	a.stats.DiagMessages++
}

func (a *AMF) ctx(imsi string) *UEContext {
	c, okC := a.ctxs[imsi]
	if !okC {
		c = &UEContext{IMSI: imsi}
		a.ctxs[imsi] = c
	}
	return c
}

func (a *AMF) send(imsi string, msg nas.Message) {
	a.stats.MessagesOut++
	f := a.frames.Get(imsi)
	if c, okC := a.ctxs[imsi]; okC && c.sec != nil {
		a.encScratch = a.codec.AppendMarshal(a.encScratch[:0], msg)
		f.Bytes = c.sec.AppendProtect(f.Bytes, crypto5g.Downlink, a.encScratch)
	} else {
		f.Bytes = a.codec.AppendMarshal(f.Bytes, msg)
	}
	if !a.gnb.SendNAS(f) {
		a.frames.Put(f) // refused (unknown UE, link down): never in flight
	}
}

// unwrapNAS verifies/strips an uplink security envelope: the UE's active
// context if held, else the initial-message allowance (re-authentication
// re-establishes trust immediately after).
func (a *AMF) unwrapNAS(imsi string, data []byte) ([]byte, bool) {
	if !nas.IsProtected(data) {
		return data, true
	}
	if c, okC := a.ctxs[imsi]; okC && c.sec != nil {
		if plain, err := c.sec.Unprotect(crypto5g.Uplink, data); err == nil {
			return plain, true
		}
	}
	plain, err := nas.StripUnverified(data)
	return plain, err == nil
}

// SendRaw transmits a pre-encoded downlink NAS message (the SEED plugin
// uses it for diagnosis deliveries).
func (a *AMF) SendRaw(imsi string, msg nas.Message) { a.send(imsi, msg) }

// HandleUplinkNAS processes an uplink NAS message. data is only read: the
// decoded message shares nothing with it.
func (a *AMF) HandleUplinkNAS(imsi string, data []byte) {
	a.stats.MessagesIn++
	plain, okSec := a.unwrapNAS(imsi, data)
	if !okSec {
		return
	}
	msg, err := a.codec.Unmarshal(plain)
	if err != nil {
		return
	}
	a.k.AfterArg(a.proc, a.dispatchFn, a.hops.take(imsi, msg))
}

// handleUplinkFrame is HandleUplinkNAS for a frame off the backhaul, which
// the AMF now owns and keeps for its next downlink.
func (a *AMF) handleUplinkFrame(f *radio.NAS) {
	a.HandleUplinkNAS(f.UE, f.Bytes)
	a.frames.Put(f)
}

func (a *AMF) dispatch(imsi string, msg nas.Message) {
	if msg.EPD() == nas.EPD5GSM {
		a.dispatchSM(imsi, msg)
		return
	}
	switch t := msg.(type) {
	case *nas.RegistrationRequest:
		a.handleRegistration(imsi, t)
	case *nas.AuthenticationResponse:
		a.handleAuthResponse(imsi, t)
	case *nas.AuthenticationFailure:
		a.handleAuthFailure(imsi, t)
	case *nas.SecurityModeComplete:
		a.handleSMCComplete(imsi)
	case *nas.RegistrationComplete:
		// registration confirmed; nothing further
	case *nas.ServiceRequest:
		a.handleServiceRequest(imsi, t)
	case *nas.DeregistrationRequest:
		a.send(imsi, &nas.DeregistrationAccept{})
		a.DropUEContext(imsi)
	}
}

func (a *AMF) dispatchSM(imsi string, msg nas.Message) {
	c, okC := a.ctxs[imsi]
	if !okC || !c.Registered {
		// No registration context: the UE must reattach first.
		a.reject(imsi, cause.MMUEIdentityCannotBeDerived)
		return
	}
	a.smf.HandleUplink(imsi, msg)
}

func (a *AMF) reject(imsi string, code cause.Code) {
	a.stats.Rejects++
	if a.OnReject != nil {
		a.OnReject(imsi, code)
	}
	a.send(imsi, &nas.RegistrationReject{Cause: code})
}

func (a *AMF) handleRegistration(imsi string, req *nas.RegistrationRequest) {
	a.stats.Registers++

	// Identity resolution: a GUTI the network cannot map is the top
	// control-plane failure of Table 1.
	switch req.Identity.Type {
	case nas.IdentityGUTI:
		mapped, okG := a.gutiIndex[req.Identity.Value]
		if !okG || mapped != imsi {
			a.reject(imsi, cause.MMUEIdentityCannotBeDerived)
			return
		}
	case nas.IdentitySUCI:
		// concealed permanent identity: proceed
	default:
		a.reject(imsi, cause.MMInvalidMandatoryInfo)
		return
	}

	if rule := a.inj.Match(imsi, cause.ControlPlane); rule != nil {
		if rule.Silent {
			if a.OnTimeoutDrop != nil {
				a.OnTimeoutDrop(imsi)
			}
			return
		}
		a.reject(imsi, rule.Cause)
		return
	}

	sub, okS := a.udm.Subscriber(imsi)
	if !okS || !sub.Authorized {
		a.reject(imsi, cause.MMIllegalUE)
		return
	}
	for _, s := range req.RequestedNSSAI {
		if !sub.AllowsSST(s.SST) {
			a.reject(imsi, cause.MMNoNetworkSlicesAvailable)
			return
		}
	}

	// 5G-AKA challenge.
	var rnd [16]byte
	a.k.Rand().Read(rnd[:])
	a.challenge(imsi, rnd, func() { a.acceptRegistration(imsi) })
}

// challenge runs an authentication round and calls then on success.
func (a *AMF) challenge(imsi string, rnd [16]byte, then func()) {
	av, err := a.udm.GenerateAuthVector(imsi, rnd)
	if err != nil {
		a.reject(imsi, cause.MMIllegalUE)
		return
	}
	c := a.ctx(imsi)
	c.authRAND = av.RAND
	c.authXRES = av.XRES
	c.authIK = av.IK
	c.authPending = true
	c.postAuth = then
	a.stats.AuthRounds++
	a.send(imsi, &nas.AuthenticationRequest{NgKSI: 1, RAND: av.RAND, AUTN: av.AUTN})
}

func (a *AMF) handleAuthResponse(imsi string, resp *nas.AuthenticationResponse) {
	c, okC := a.ctxs[imsi]
	if !okC || !c.authPending {
		return
	}
	c.authPending = false
	if len(resp.RES) != 8 || string(resp.RES) != string(c.authXRES[:]) {
		a.send(imsi, &nas.AuthenticationReject{})
		a.DropUEContext(imsi)
		return
	}
	// Re-key at the Security Mode boundary: from here on, NAS both ways
	// is integrity protected under the fresh context.
	c.sec = nas.NewSecurityContext(c.authIK)
	a.send(imsi, &nas.SecurityModeCommand{Algorithms: 0x21}) // EEA2|EIA2
}

func (a *AMF) handleAuthFailure(imsi string, f *nas.AuthenticationFailure) {
	c, okC := a.ctxs[imsi]
	if !okC {
		return
	}
	if c.diagPending && f.Cause == cause.MMSynchFailure {
		// SEED diagnosis ACK (Fig 7a).
		c.diagPending = false
		if a.OnDiagAck != nil {
			a.OnDiagAck(imsi, f.AUTS)
		}
		return
	}
	if !c.authPending {
		return
	}
	c.authPending = false
	switch f.Cause {
	case cause.MMSynchFailure:
		// Real SQN resync: recover SQN_MS, re-challenge.
		if err := a.udm.Resynchronize(imsi, c.authRAND, f.AUTS); err != nil {
			a.send(imsi, &nas.AuthenticationReject{})
			return
		}
		var rnd [16]byte
		a.k.Rand().Read(rnd[:])
		a.challenge(imsi, rnd, c.postAuth)
	case cause.MMMACFailure:
		a.send(imsi, &nas.AuthenticationReject{})
		a.DropUEContext(imsi)
	}
}

func (a *AMF) handleSMCComplete(imsi string) {
	c, okC := a.ctxs[imsi]
	if !okC || c.postAuth == nil {
		return
	}
	then := c.postAuth
	c.postAuth = nil
	then()
}

func (a *AMF) acceptRegistration(imsi string) {
	c := a.ctx(imsi)
	if c.GUTI != "" {
		delete(a.gutiIndex, c.GUTI)
	}
	a.gutiSeq++
	c.GUTI = fmt.Sprintf("guti-%06d", a.gutiSeq)
	c.Registered = true
	a.gutiIndex[c.GUTI] = imsi
	a.send(imsi, &nas.RegistrationAccept{
		GUTI:         nas.MobileIdentity{Type: nas.IdentityGUTI, Value: c.GUTI},
		TAIList:      []nas.TAI{{PLMN: 310170, TAC: 1}},
		T3512Seconds: 3600,
	})
}

func (a *AMF) handleServiceRequest(imsi string, _ *nas.ServiceRequest) {
	c, okC := a.ctxs[imsi]
	if !okC || !c.Registered {
		a.stats.Rejects++
		if a.OnReject != nil {
			a.OnReject(imsi, cause.MMUEIdentityCannotBeDerived)
		}
		a.send(imsi, &nas.ServiceReject{Cause: cause.MMUEIdentityCannotBeDerived})
		return
	}
	a.send(imsi, &nas.ServiceAccept{})
}
