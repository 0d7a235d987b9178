package core5g

import (
	"fmt"

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
	// acceptPending marks a registration waiting for its authentication
	// and Security Mode rounds: the Security Mode Complete accepts it.
	acceptPending bool

	// sec is the active NAS security context (nil before Security Mode);
	// it lives in secStore, which each Security Mode procedure re-keys.
	sec      *nas.SecurityContext
	secStore nas.SecurityContext

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
	k   *sched.Kernel
	gnb RadioAccess
	udm *UDM
	smf *SMF
	inj *Injector

	ctxs      map[string]*UEContext
	gutiIndex map[string]string
	gutiSeq   int
	// gutiNames are the GUTIs of sequence numbers gutiBase on, formatted
	// by Warm: a restored prototype's registrations find theirs there.
	gutiBase  int
	gutiNames [warmGUTIs]string
	// lastIMSI and lastCtx remember the latest hit in ctxs, which every
	// message in and out asks (the gNB's ue() has the same cache and the
	// same reason); whatever deletes from ctxs forgets it.
	lastIMSI string
	lastCtx  *UEContext
	// spare is the context forget dropped last, which ctx builds the next
	// one in: a UE that reattaches after every failed session (the legacy
	// loops) would otherwise cost a context per lap.
	spare *UEContext

	// Signalling fast path (radio.NAS and nas.Pool have the ownership
	// rules): a downlink is built in out, encoded into a frame from frames
	// — the network's pool, which is also where uplink frames end once
	// decoded; codec is the one encoder/decoder state, decoding into
	// messages from msgs, and encScratch backs the plain encoding of
	// protected downlinks (the security layer copies it into the frame). A
	// decoded uplink waits out the processing latency in a pooled hop
	// record armed with dispatchFn; dispatch releases it, or hands it to
	// the SMF, which does.
	frames     *radio.NASPool
	msgs       *nas.Pool
	codec      nas.Codec
	encScratch []byte
	hops       hopPool
	dispatchFn func(any) // arg: *nasHop
	out        amfOutbox

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

// amfOutbox holds one of each message the AMF composes. send encodes
// before it returns and nothing it calls keeps the message, so each is
// dead by the time the next of its kind is built: a downlink costs no
// message object.
type amfOutbox struct {
	authReq  nas.AuthenticationRequest
	authRej  nas.AuthenticationReject
	smc      nas.SecurityModeCommand
	regAcc   nas.RegistrationAccept
	tai      [1]nas.TAI
	regRej   nas.RegistrationReject
	svcAcc   nas.ServiceAccept
	svcRej   nas.ServiceReject
	deregAcc nas.DeregistrationAccept
}

// NewAMF creates the AMF on its network's signalling pools. Wire SMF with
// SetSMF before use.
func NewAMF(k *sched.Kernel, gnb RadioAccess, udm *UDM, inj *Injector, frames *radio.NASPool, msgs *nas.Pool) *AMF {
	a := &AMF{
		k: k, gnb: gnb, udm: udm, inj: inj,
		ctxs:      make(map[string]*UEContext),
		gutiIndex: make(map[string]string),
		frames:    frames, msgs: msgs, codec: nas.Codec{Pool: msgs},
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
	if a.lastCtx != nil && a.lastIMSI == imsi {
		return a.lastCtx, true
	}
	c, okC := a.ctxs[imsi]
	if okC {
		a.lastIMSI, a.lastCtx = imsi, c
	}
	return c, okC
}

// forget deletes a UE's context.
func (a *AMF) forget(imsi string) {
	if c, okC := a.Context(imsi); okC {
		a.spare = c
	}
	delete(a.ctxs, imsi)
	a.lastCtx = nil
}

// SecurityActive reports whether a NAS security context is established
// for the UE, and how many messages it protected/verified.
func (a *AMF) SecurityActive(imsi string) (active bool, protected, verified int) {
	c, okC := a.Context(imsi)
	if !okC || c.sec == nil {
		return false, 0, 0
	}
	out, in := c.sec.Stats()
	return true, out, in
}

// Registered reports whether the UE is currently registered.
func (a *AMF) Registered(imsi string) bool {
	c, okC := a.Context(imsi)
	return okC && c.Registered
}

// DesyncIdentity drops the GUTI mapping and registration context for a UE
// without telling it — the tracking-area state-sync failure of Table 1
// ("UE identity cannot be derived by the network").
func (a *AMF) DesyncIdentity(imsi string) {
	if c, okC := a.Context(imsi); okC {
		delete(a.gutiIndex, c.GUTI)
	}
	a.forget(imsi)
}

// DropUEContext implicitly deregisters a UE (e.g. after its last radio
// bearer was released). The UE is not notified — it discovers via a
// cause-9 reject on its next signaling, exactly the desync class §3.1
// describes.
func (a *AMF) DropUEContext(imsi string) {
	c, okC := a.Context(imsi)
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
	a.forget(imsi)
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
	c, okC := a.Context(imsi)
	if !okC {
		if c, a.spare = a.spare, nil; c == nil {
			c = new(UEContext)
		}
		*c = UEContext{IMSI: imsi}
		a.ctxs[imsi] = c
	}
	return c
}

func (a *AMF) send(imsi string, msg nas.Message) {
	a.stats.MessagesOut++
	f := a.frames.Get(imsi)
	if c, okC := a.Context(imsi); okC && c.sec != nil {
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
	if c, okC := a.Context(imsi); okC && c.sec != nil {
		if plain, err := c.sec.Unprotect(crypto5g.Uplink, data); err == nil {
			return plain, true
		}
	}
	plain, err := nas.StripUnverified(data)
	return plain, err == nil
}

// SendRaw transmits a downlink NAS message composed elsewhere (the SMF's
// session messages, the SEED plugin's diagnosis deliveries). msg is
// encoded before SendRaw returns and not kept.
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
	a.k.AfterArg(amfProc, a.dispatchFn, a.hops.take(imsi, msg))
}

// handleUplinkFrame is HandleUplinkNAS for a frame off the backhaul, which
// the AMF now owns and keeps for its next downlink.
func (a *AMF) handleUplinkFrame(f *radio.NAS) {
	a.HandleUplinkNAS(f.UE, f.Bytes)
	a.frames.Put(f)
}

// dispatch handles a decoded uplink, which the AMF owns: it is released
// when its handler returns, unless it went on to the SMF.
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
		a.send(imsi, &a.out.deregAcc)
		a.DropUEContext(imsi)
	}
	a.msgs.Put(msg)
}

func (a *AMF) dispatchSM(imsi string, msg nas.Message) {
	c, okC := a.Context(imsi)
	if !okC || !c.Registered {
		// No registration context: the UE must reattach first.
		a.msgs.Put(msg)
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
	a.out.regRej = nas.RegistrationReject{Cause: code}
	a.send(imsi, &a.out.regRej)
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
	a.challenge(imsi, rnd, true)
}

// challenge runs an authentication round; with accept, the Security Mode
// Complete that follows a successful one accepts the registration.
func (a *AMF) challenge(imsi string, rnd [16]byte, accept bool) {
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
	c.acceptPending = accept
	a.stats.AuthRounds++
	a.out.authReq = nas.AuthenticationRequest{NgKSI: 1, RAND: av.RAND, AUTN: av.AUTN}
	a.send(imsi, &a.out.authReq)
}

func (a *AMF) handleAuthResponse(imsi string, resp *nas.AuthenticationResponse) {
	c, okC := a.Context(imsi)
	if !okC || !c.authPending {
		return
	}
	c.authPending = false
	if len(resp.RES) != 8 || string(resp.RES) != string(c.authXRES[:]) {
		a.send(imsi, &a.out.authRej)
		a.DropUEContext(imsi)
		return
	}
	// Re-key at the Security Mode boundary: from here on, NAS both ways
	// is integrity protected under the fresh context.
	a.msgs.KeySecurityContext(&c.secStore, c.authIK)
	c.sec = &c.secStore
	a.out.smc = nas.SecurityModeCommand{Algorithms: 0x21} // EEA2|EIA2
	a.send(imsi, &a.out.smc)
}

func (a *AMF) handleAuthFailure(imsi string, f *nas.AuthenticationFailure) {
	c, okC := a.Context(imsi)
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
			a.send(imsi, &a.out.authRej)
			return
		}
		var rnd [16]byte
		a.k.Rand().Read(rnd[:])
		a.challenge(imsi, rnd, c.acceptPending)
	case cause.MMMACFailure:
		a.send(imsi, &a.out.authRej)
		a.DropUEContext(imsi)
	}
}

func (a *AMF) handleSMCComplete(imsi string) {
	c, okC := a.Context(imsi)
	if !okC || !c.acceptPending {
		return
	}
	c.acceptPending = false
	a.acceptRegistration(imsi)
}

func (a *AMF) acceptRegistration(imsi string) {
	c := a.ctx(imsi)
	if c.GUTI != "" {
		delete(a.gutiIndex, c.GUTI)
	}
	a.gutiSeq++
	c.GUTI = a.gutiName(a.gutiSeq)
	c.Registered = true
	a.gutiIndex[c.GUTI] = imsi
	a.out.tai[0] = nas.TAI{PLMN: 310170, TAC: 1}
	a.out.regAcc = nas.RegistrationAccept{
		GUTI:         nas.MobileIdentity{Type: nas.IdentityGUTI, Value: c.GUTI},
		TAIList:      a.out.tai[:],
		T3512Seconds: 3600,
	}
	a.send(imsi, &a.out.regAcc)
}

// warmGUTIs is how many GUTIs Warm formats ahead: more registrations than
// nearly every cell makes in its window, a legacy reboot loop's included.
const warmGUTIs = 64

// gutiName returns the GUTI of sequence number seq.
func (a *AMF) gutiName(seq int) string {
	if i := seq - a.gutiBase; a.gutiBase > 0 && i >= 0 && i < len(a.gutiNames) {
		return a.gutiNames[i]
	}
	return formatGUTI(seq)
}

func formatGUTI(seq int) string { return fmt.Sprintf("guti-%06d", seq) }

// warmGUTIs formats the GUTIs of the next warmGUTIs registrations.
func (a *AMF) warmGUTIs() {
	a.gutiBase = a.gutiSeq + 1
	for i := range a.gutiNames {
		a.gutiNames[i] = formatGUTI(a.gutiBase + i)
	}
}

func (a *AMF) handleServiceRequest(imsi string, _ *nas.ServiceRequest) {
	c, okC := a.Context(imsi)
	if !okC || !c.Registered {
		a.stats.Rejects++
		if a.OnReject != nil {
			a.OnReject(imsi, cause.MMUEIdentityCannotBeDerived)
		}
		a.out.svcRej = nas.ServiceReject{Cause: cause.MMUEIdentityCannotBeDerived}
		a.send(imsi, &a.out.svcRej)
		return
	}
	a.send(imsi, &a.out.svcAcc)
}
