// Package modem emulates a 5G baseband: the 5GMM registration and 5GSM
// session state machines of TS 24.501 with their standard timers (T3510,
// T3511, T3502, T3580), the SIM interface (profile load, AKA, proactive
// command fetch), the TS 27.007 AT command set used by SEED-R, and —
// crucially for the paper's baseline — the *legacy* failure handling of
// §3.2: blind timer-based retries that ignore the standardized cause codes
// carried by reject messages and keep resending outdated configuration.
package modem

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"github.com/seed5g/seed/internal/crypto5g"
	"github.com/seed5g/seed/internal/freelist"
	"github.com/seed5g/seed/internal/nas"
	"github.com/seed5g/seed/internal/radio"
	"github.com/seed5g/seed/internal/sched"
	"github.com/seed5g/seed/internal/sim"
)

// State is the 5GMM registration state.
type State uint8

const (
	StateOff State = iota
	StateBooting
	StateSearching
	StateDeregistered
	StateRegistering
	StateRegistered
)

func (s State) String() string {
	switch s {
	case StateOff:
		return "OFF"
	case StateBooting:
		return "BOOTING"
	case StateSearching:
		return "SEARCHING"
	case StateDeregistered:
		return "DEREGISTERED"
	case StateRegistering:
		return "REGISTERING"
	case StateRegistered:
		return "REGISTERED"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Session is a PDU session context held by the modem. The DNN here is the
// modem's *cached* session configuration — the cache whose staleness
// relative to the SIM profile and the subscription database produces the
// repeated data-plane failures of §3.2. A *Session handed out is good
// until the session is dropped: the modem then recycles it for a later
// session, so whoever keeps a session past that keeps its ID instead.
type Session struct {
	ID      uint8
	DNN     string
	Type    nas.PDUSessionType
	Address nas.Addr
	DNS     []nas.Addr
	TFT     nas.TFT
	QoS     nas.QoS
	Active  bool

	pti      uint8
	attempts int
	timer    sched.Timer
	// dnsSpare and filterSpare are the backing arrays a recycled session
	// kept of its DNS and TFT lists, for the accept to fill: the lists
	// themselves stay nil until then.
	dnsSpare    []nas.Addr
	filterSpare []nas.PacketFilter
}

// Recycle resets a dropped session for the next EstablishSession, as the
// modem's free list does on Put: to its zero value, but keeping its lists'
// backing arrays.
func (s *Session) Recycle() {
	*s = Session{dnsSpare: spare(s.DNS, s.dnsSpare), filterSpare: spare(s.TFT.Filters, s.filterSpare)}
}

// spare is the backing array to keep of list, emptied: list's own, or
// old's when list has none.
func spare[T any](list, old []T) []T {
	if list == nil {
		return old[:0]
	}
	return list[:0]
}

// fill is append(list[:0], src...), copying into spare's backing array
// when list is nil and there is something to copy.
func fill[T any](list, spare, src []T) []T {
	if list == nil && len(src) > 0 {
		list = spare
	}
	return append(list[:0], src...)
}

// The modem's timers and retry limits. The TS 24.501 timers are the 3GPP
// standard values the paper cites.
const (
	t3510 = 15 * time.Second // registration procedure guard
	t3511 = 10 * time.Second // retry backoff after failure
	t3502 = 12 * time.Minute // long backoff after maxRegAttempts
	// T3580 is the PDU session procedure guard and retry backoff.
	T3580 = 16 * time.Second

	maxRegAttempts  = 5 // attempts before falling back to T3502
	maxSessAttempts = 5 // attempts before escalating to reattach

	bootTime           = 800 * time.Millisecond  // power-cycle duration
	fullSearchTime     = 9 * time.Second         // PLMN scan without a fresh list
	listSearchTime     = 300 * time.Millisecond  // PLMN scan with a fresh preferred list
	refreshInitTime    = 3500 * time.Millisecond // SIM re-initialization on REFRESH(init)
	simIOLatency       = 10 * time.Millisecond   // one APDU exchange
	transientRetryWait = 500 * time.Millisecond  // immediate-retry backoff for abnormal cases
	// inactivityTimeout moves the RRC connection to idle after this long
	// without user-plane traffic; the next packet pays a Service Request
	// round trip to resume.
	inactivityTimeout = 30 * time.Second
)

// Hooks are the modem's upcall interface to the OS/apps/metrics layers.
// Any field may be nil.
type Hooks struct {
	OnSessionUp func(*Session)
	// OnDownlinkData borrows the delivered packet for the call; the modem
	// releases its frame when the hook returns.
	OnDownlinkData  func(*radio.Packet)
	OnReject        func(epd byte, code uint8) // every reject cause seen (legacy ignores it)
	OnProfileReload func()
}

// NASObserver is what the modem looks for on its kernel's observer
// (sched.Kernel.Observe): NAS is handed every message the modem sends or
// receives (after decryption). msg is lent for the call — a send is built in
// the modem's outbox, a downlink goes back to the pool — so an observer
// marshals or names it before returning.
type NASObserver interface {
	NAS(imsi string, sent bool, msg nas.Message)
}

// APDUObserver is the same for the modem↔SIM boundary: every APDU the modem
// relays to the card (TransmitAPDU) and the card's response to it.
type APDUObserver interface {
	APDU(imsi string, cmd sim.Command, resp sim.Response)
}

// Modem is the emulated baseband processor.
type Modem struct {
	k    *sched.Kernel
	card *sim.Card
	tx   func(any) bool // radio uplink
	hook Hooks

	state   State
	imsi    string
	guti    string // assigned temporary identity ("" = none)
	profile sim.Profile

	// plmnListFresh marks whether the preferred-PLMN list read from the
	// SIM covers the serving network (accelerates search, SEED A2).
	plmnListFresh bool

	// sessions is kept in ascending ID order: the per-packet lookups
	// (lowest-ID active session) and every iteration are deterministic
	// and allocation-free. A modem holds a handful at most.
	sessions    []*Session
	nextSession uint8
	nextPTI     uint8
	// spareSessions are dropped sessions kept for the next
	// EstablishSession: a dropped session is referenced by nothing (its
	// timer is stopped with it).
	spareSessions freelist.List[Session]

	regAttempts int
	regTimer    sched.Timer // T3510/T3511/T3502 (one at a time)

	// NAS security: sec is the active context; lastIK holds the key from
	// the most recent AKA run, and rekeyPending marks that no context has
	// been keyed with it yet: only then may a downlink the active context
	// rejects be tried against a fresh one (the Security Mode boundary).
	// Once adopted, a second fresh context from the same key would start
	// over at COUNT 0 and verify a replay of that AKA's own downlinks.
	// rekey is that fresh context, built on first need and then kept while
	// the re-key is pending: a failed verification leaves a context
	// untouched, so one candidate serves every attempt, and a peer feeding
	// the modem garbage in that window buys no key expansion per frame.
	// Both live in secSlots: the candidate takes the slot the active
	// context is not in.
	sec          *nas.SecurityContext
	lastIK       [16]byte
	rekeyPending bool
	rekey        *nas.SecurityContext
	secSlots     [2]nas.SecurityContext

	// RRC connection state: idle mode suspends the user plane after
	// inactivity; a Service Request resumes it on the next packet.
	rrcConnected bool
	resuming     bool
	idleTimer    sched.Timer
	// pendingPkts are the frames queued behind a Service Request, the
	// modem's until the resume flushes them or dropPending releases them.
	pendingPkts []*radio.Packet
	// frames is the testbed's user-plane frame pool: SendPacket takes one
	// per uplink packet, HandleDownlink returns the one each downlink
	// packet came in. nasFrames is the same for signalling, msgs the
	// testbed's pool of decoded messages (deliverNAS releases what codec
	// decoded), and codec the encoder and decoder state every NAS message
	// of this modem goes through. Every message the modem sends is built
	// in out.
	frames    *radio.FramePool
	nasFrames *radio.NASPool
	msgs      *nas.Pool
	codec     nas.Codec
	out       outbox

	// Reusable callback slots for the hottest timer arm/stop cycles
	// (registration retries, inactivity, session guards): built once in
	// New so re-arming a timer allocates no closure. The *Arg slots pair
	// with sched.AfterArg, which carries the argument in the event's slot.
	goIdleFn  func()
	bootFn    func() // bootTime over: read the profile
	profileFn func() // profile read over: search
	foundFn   func() // search over: attach
	t3510Fn   func()
	attachFn  func()
	t3502Fn   func()
	fetchFn   func()
	t3580Arg  func(any) // arg: *Session
	sessRetry func(any) // arg: *Session
	authArg   func(any) // arg: *nas.AuthenticationRequest
	apduArg   func(any) // arg: *apduCall

	// encScratch backs the plain NAS encoding of protected uplinks; the
	// security layer copies it into the frame's envelope, so the buffer is
	// safe to reuse on the next send.
	encScratch []byte

	// rrcConnect and rrcRelease are the RRC frames of the identity rrcUE,
	// boxed once: the frames are values the link and the gNB only read, so
	// every connect and release can send the same one.
	rrcUE                  string
	rrcConnect, rrcRelease any

	// apduCalls is the free list of TransmitAPDU's records.
	apduCalls freelist.List[apduCall]
	// refreshes are the file lists of the SIM re-initializations under
	// way, oldest first; refreshFn ends the oldest.
	refreshes [][]sim.FileID
	refreshFn func()

	autoSession bool // establish the default session right after attach

	stats Stats
}

// Stats counts modem activity for the overhead models.
type Stats struct {
	NASSent         int
	NASReceived     int
	Reboots         int
	Attaches        int
	PacketsUp       int
	PacketsDown     int
	ATCommands      int
	ServiceRequests int
	IdleTransitions int
}

// outbox holds one of each message the modem sends. sendNAS encodes before
// it returns and a NASObserver is lent the message for the call only, so
// each is dead by the time the next of its kind is built: an uplink costs
// no message object.
type outbox struct {
	regReq   nas.RegistrationRequest
	nssai    [1]nas.SNSSAI
	regDone  nas.RegistrationComplete
	deregReq nas.DeregistrationRequest
	deregAcc nas.DeregistrationAccept
	svcReq   nas.ServiceRequest
	authResp nas.AuthenticationResponse
	authFail nas.AuthenticationFailure
	smcDone  nas.SecurityModeComplete
	sessReq  nas.PDUSessionEstablishmentRequest
	snssai   nas.SNSSAI
	modReq   nas.PDUSessionModificationRequest
	modDone  nas.PDUSessionModificationComplete
	relReq   nas.PDUSessionReleaseRequest
	relDone  nas.PDUSessionReleaseComplete
}

// New creates a modem bound to the kernel, SIM card, and radio transmit
// function. The transmit function reports whether the frame was accepted
// (false models a partitioned radio link). frames, nasFrames and msgs are
// the pools of the network the modem attaches to.
func New(k *sched.Kernel, card *sim.Card, tx func(any) bool, frames *radio.FramePool, nasFrames *radio.NASPool, msgs *nas.Pool) *Modem {
	m := &Modem{
		k: k, card: card, tx: tx,
		frames: frames, nasFrames: nasFrames, msgs: msgs, codec: nas.Codec{Pool: msgs},
		state:       StateOff,
		nextSession: 1,
		nextPTI:     1,
		autoSession: true,
	}
	m.goIdleFn = m.goIdle
	m.bootFn = m.loadProfileAndSearch
	m.profileFn = m.readProfileAndSearch
	m.foundFn = m.onNetworkFound
	m.t3510Fn = m.onT3510Expiry
	m.attachFn = func() { m.Attach() }
	m.t3502Fn = func() {
		// After the long backoff the modem starts from scratch: stale
		// GUTI dropped and the SIM profile re-read before the fresh
		// attempt (TS 24.501 §5.3.7 equivalent-fresh-attach).
		m.guti = ""
		m.refreshProfile(nil)
		m.Attach()
	}
	m.fetchFn = m.fetchProactive
	m.t3580Arg = func(v any) { m.onT3580Expiry(v.(*Session)) }
	m.sessRetry = func(v any) {
		if m.state == StateRegistered {
			m.sendSessionRequest(v.(*Session))
		}
	}
	m.authArg = func(v any) { m.runAuth(v.(*nas.AuthenticationRequest)) }
	m.apduArg = func(v any) { m.deliverAPDU(v.(*apduCall)) }
	m.refreshFn = m.refreshed
	card.OnProactive(func() {
		// Fetch after one SIM I/O round trip.
		k.After(simIOLatency, m.fetchFn)
	})
	return m
}

// boxRRC boxes the RRC frames of identity ue.
func (m *Modem) boxRRC(ue string) {
	m.rrcUE, m.rrcConnect, m.rrcRelease = ue, radio.RRCConnect{UE: ue}, radio.RRCRelease{UE: ue}
}

// txRRC sends the RRC connect (or, with release, the release) of the
// modem's identity.
func (m *Modem) txRRC(release bool) {
	if m.rrcUE != m.imsi {
		m.boxRRC(m.imsi)
	}
	if release {
		m.tx(m.rrcRelease)
	} else {
		m.tx(m.rrcConnect)
	}
}

// Warm fills the modem's free lists (sessions, APDU records), sizes its
// buffers and boxes the RRC frames of the identity the boot will read
// ahead of a prototype snapshot (see core5g.Network.Warm): a list, buffer
// or box snapshotted empty is made again in every restored run.
func (m *Modem) Warm() {
	if p, err := m.card.ReadProfile(); err == nil && m.rrcUE != p.IMSI {
		m.boxRRC(p.IMSI)
	}
	if cap(m.encScratch) == 0 {
		m.encScratch = make([]byte, 0, radio.NASFrameCap)
	}
	if cap(m.sessions) == 0 {
		m.sessions = make([]*Session, 0, warmSessions)
	}
	m.spareSessions.Warm(warmSessions)
	m.apduCalls.Warm(warmAPDUs)
	if cap(m.refreshes) == 0 {
		m.refreshes = make([][]sim.FileID, 0, 1)
	}
	m.out.warm()
}

// warmAPDUs is how many APDUs Warm makes room for in flight: a SELECT and
// its ENVELOPE.
const warmAPDUs = 2

// warm gives the outbox's byte fields their largest size (RES, AUTS).
func (o *outbox) warm() {
	if cap(o.authResp.RES) == 0 {
		o.authResp.RES = make([]byte, 0, 16)
		o.authFail.AUTS = make([]byte, 0, 16)
	}
}

// warmSessions is how many sessions Warm makes room for: a data session
// and a DIAG one.
const warmSessions = 2

// SetHooks installs the upcall hooks.
func (m *Modem) SetHooks(h Hooks) { m.hook = h }

// State returns the current 5GMM state.
func (m *Modem) State() State { return m.state }

// Stats returns a copy of the activity counters.
func (m *Modem) Stats() Stats { return m.stats }

// IMSI returns the subscriber identity read from the SIM.
func (m *Modem) IMSI() string { return m.imsi }

// Profile returns the modem's cached copy of the SIM profile.
func (m *Modem) Profile() sim.Profile { return m.profile }

// Sessions returns a copy of the session list in ascending ID order
// (stable ordering keeps the whole simulation deterministic across
// process runs).
func (m *Modem) Sessions() []*Session {
	return append([]*Session(nil), m.sessions...)
}

// Session returns the session with the given ID.
func (m *Modem) Session(id uint8) (*Session, bool) {
	for _, s := range m.sessions {
		if s.ID == id {
			return s, true
		}
	}
	return nil, false
}

// addSession inserts s at its place in the ID order. A session already
// holding the ID is dropped first, the way any session goes (announced as
// SessionRemoved, b = 1 for an active one), not swapped out behind the
// device's back.
func (m *Modem) addSession(s *Session) {
	m.dropSession(s.ID)
	i, _ := slices.BinarySearchFunc(m.sessions, s.ID, func(e *Session, id uint8) int {
		return cmp.Compare(e.ID, id)
	})
	m.sessions = slices.Insert(m.sessions, i, s)
	m.k.Announce(sched.SessionAdded, int(s.ID), 0)
}

// removeSession deletes the session with the given ID, if present.
func (m *Modem) removeSession(id uint8) {
	for i, s := range m.sessions {
		if s.ID == id {
			m.sessions = slices.Delete(m.sessions, i, i+1)
			active := 0
			if s.Active {
				active = 1
			}
			m.k.Announce(sched.SessionRemoved, int(id), active)
			return
		}
	}
}

// FirstActiveSession returns the lowest-ID active session, if any.
func (m *Modem) FirstActiveSession() (*Session, bool) {
	for _, s := range m.sessions {
		if s.Active {
			return s, true
		}
	}
	return nil, false
}

// FirstActiveSessionFunc returns the lowest-ID active session for which
// keep returns true. It sits on the per-packet path: callers store keep
// once, and the scan stops at the first match.
func (m *Modem) FirstActiveSessionFunc(keep func(*Session) bool) (*Session, bool) {
	for _, s := range m.sessions {
		if s.Active && keep(s) {
			return s, true
		}
	}
	return nil, false
}

// OverrideSessionDNN sets the modem's cached session DNN without touching
// the SIM — the failure injector uses this to model a stale modem cache.
func (m *Modem) OverrideSessionDNN(dnn string) { m.profile.DNN = dnn }

// OverridePLMNList marks the cached preferred-PLMN list stale, forcing
// full-band searches (the condition SEED A2 repairs).
func (m *Modem) OverridePLMNList(plmns []uint32) {
	m.profile.PLMNs = plmns
	m.plmnListFresh = false
}

func (m *Modem) setState(s State) {
	if m.state == s {
		return
	}
	m.state = s
	m.k.Announce(sched.ModemState, int(s), 0)
}

// PowerOn boots the modem: read the SIM profile, search for a network,
// and start registration.
func (m *Modem) PowerOn() {
	if m.state != StateOff {
		return
	}
	m.setState(StateBooting)
	m.k.After(bootTime, m.bootFn)
}

// PowerOff drops all state and turns the modem off.
func (m *Modem) PowerOff() {
	m.cancelRegTimer()
	m.dropAllSessions()
	m.guti = "" // volatile context cleared by power cycle
	m.sec = nil
	m.rekeyPending, m.rekey = false, nil
	m.rrcConnected = false
	m.resuming = false
	m.dropPending()
	m.idleTimer.Stop()
	m.regAttempts = 0
	m.setState(StateOff)
}

// Reboot power-cycles the modem (AT+CFUN=1,1 / SEED B1 / Android's last
// recovery rung). The reboot clears cached contexts and re-reads the SIM.
func (m *Modem) Reboot() {
	m.stats.Reboots++
	m.PowerOff()
	m.PowerOn()
}

func (m *Modem) loadProfileAndSearch() {
	// Profile read costs a handful of APDU exchanges.
	m.k.After(4*simIOLatency, m.profileFn)
}

func (m *Modem) readProfileAndSearch() {
	p, err := m.card.ReadProfile()
	if err == nil {
		m.profile = p
		m.imsi = p.IMSI
		m.plmnListFresh = containsPLMN(p.PLMNs, ServingPLMN)
	}
	if m.hook.OnProfileReload != nil {
		m.hook.OnProfileReload()
	}
	m.search()
}

// ServingPLMN is the PLMN of the emulated serving network.
const ServingPLMN uint32 = 310170

func containsPLMN(list []uint32, p uint32) bool {
	for _, v := range list {
		if v == p {
			return true
		}
	}
	return false
}

func (m *Modem) search() {
	m.setState(StateSearching)
	d := fullSearchTime
	if m.plmnListFresh {
		d = listSearchTime
	}
	m.k.After(d, m.foundFn)
}

func (m *Modem) onNetworkFound() {
	if m.state != StateSearching {
		return
	}
	m.setState(StateDeregistered)
	m.Attach()
}

// Attach starts the registration procedure.
func (m *Modem) Attach() {
	if m.state != StateDeregistered && m.state != StateRegistered {
		return
	}
	m.stats.Attaches++
	m.setState(StateRegistering)
	m.rrcConnected = true
	m.resuming = false
	m.txRRC(false)
	m.sendRegistrationRequest()
}

// RRCConnected reports whether the radio connection is active (false in
// idle mode).
func (m *Modem) RRCConnected() bool { return m.rrcConnected }

// markActivity resets the inactivity clock (user-plane traffic only). It
// runs on every packet, so the pending timer is moved, not replaced.
func (m *Modem) markActivity() {
	m.idleTimer = m.k.Rearm(m.idleTimer, inactivityTimeout, m.goIdleFn)
}

// goIdle releases the RRC connection after inactivity (TS 38.331 RRC
// inactivity behaviour; the NAS registration and the PDU sessions stay).
func (m *Modem) goIdle() {
	if m.state != StateRegistered || !m.rrcConnected {
		return
	}
	m.rrcConnected = false
	m.stats.IdleTransitions++
	m.txRRC(true)
}

// resume performs the idle→connected transition: RRC connect plus a
// Service Request; queued packets flush on Service Accept.
func (m *Modem) resume() {
	if m.resuming || m.state != StateRegistered {
		return
	}
	m.resuming = true
	m.stats.ServiceRequests++
	m.txRRC(false)
	m.out.svcReq = nas.ServiceRequest{Identity: m.identity()}
	m.sendNAS(&m.out.svcReq)
}

func (m *Modem) identity() nas.MobileIdentity {
	if m.guti != "" {
		return nas.MobileIdentity{Type: nas.IdentityGUTI, Value: m.guti}
	}
	return nas.MobileIdentity{Type: nas.IdentitySUCI, Value: m.imsi}
}

func (m *Modem) sendRegistrationRequest() {
	req := &m.out.regReq
	*req = nas.RegistrationRequest{
		RegistrationType: nas.RegInitial,
		Identity:         m.identity(),
	}
	if m.profile.SST != 0 {
		m.out.nssai[0] = nas.SNSSAI{SST: m.profile.SST, SD: m.profile.SD}
		req.RequestedNSSAI = m.out.nssai[:]
	}
	m.sendNAS(req)
	m.cancelRegTimer()
	m.regTimer = m.k.After(t3510, m.t3510Fn)
}

func (m *Modem) cancelRegTimer() {
	m.regTimer.Stop()
}

// sendNAS encodes msg into a pooled frame and transmits it. msg is not
// kept: callers build it in m.out.
func (m *Modem) sendNAS(msg nas.Message) {
	m.stats.NASSent++
	if o, observed := m.k.Observer().(NASObserver); observed {
		o.NAS(m.imsi, true, msg)
	}
	f := m.nasFrames.Get(m.imsi)
	if m.sec != nil {
		m.encScratch = m.codec.AppendMarshal(m.encScratch[:0], msg)
		f.Bytes = m.sec.AppendProtect(f.Bytes, crypto5g.Uplink, m.encScratch)
	} else {
		f.Bytes = m.codec.AppendMarshal(f.Bytes, msg)
	}
	if !m.tx(f) {
		m.nasFrames.Put(f) // refused by the link: never in flight
	}
}

// unwrapNAS strips/verifies a downlink security envelope: the active
// context first, then — only while the latest AKA's key has not been
// adopted yet — the candidate keyed by it (the Security Mode re-keying
// boundary), else the initial-message allowance.
func (m *Modem) unwrapNAS(data []byte) ([]byte, bool) {
	if !nas.IsProtected(data) {
		return data, true
	}
	if m.sec != nil {
		if plain, err := m.sec.Unprotect(crypto5g.Downlink, data); err == nil {
			return plain, true
		}
	}
	if m.rekeyPending {
		if m.rekey == nil {
			m.rekey = &m.secSlots[0]
			if m.rekey == m.sec {
				m.rekey = &m.secSlots[1]
			}
			m.msgs.KeySecurityContext(m.rekey, m.lastIK)
		}
		if plain, err := m.rekey.Unprotect(crypto5g.Downlink, data); err == nil {
			m.sec = m.rekey
			m.rekeyPending, m.rekey = false, nil
			return plain, true
		}
	}
	plain, err := nas.StripUnverified(data)
	return plain, err == nil
}

// HandleDownlink processes a frame delivered by the radio link.
func (m *Modem) HandleDownlink(frame any) {
	if m.state == StateOff || m.state == StateBooting {
		// A modem that is off hears nothing, but the frame is still its to
		// release.
		switch f := frame.(type) {
		case *radio.NAS:
			m.nasFrames.Put(f)
		case *radio.Packet:
			m.frames.Put(f)
		}
		return
	}
	switch f := frame.(type) {
	case *radio.NAS:
		// The decoded message shares nothing with the frame, which goes
		// back to the pool first so the answer can ride it.
		msg := m.decodeDownlink(f.Bytes)
		m.nasFrames.Put(f)
		m.deliverNAS(msg)
	case radio.DownlinkNAS:
		m.deliverNAS(m.decodeDownlink(f.Bytes))
	case *radio.Packet:
		m.downlinkData(f)
		m.frames.Put(f)
	case radio.Packet:
		// A hand-built packet (tests, injectors), lent like a frame.
		m.downlinkData(&f)
	case radio.RRCRelease:
		// Network released the radio connection.
		m.rrcConnected = false
	}
}

// decodeDownlink verifies and decodes one downlink NAS PDU; nil means it
// was dropped (failed integrity check, or undecodable, as a real modem
// would).
func (m *Modem) decodeDownlink(data []byte) nas.Message {
	m.stats.NASReceived++
	data, okSec := m.unwrapNAS(data)
	if !okSec {
		return nil
	}
	msg, err := m.codec.Unmarshal(data)
	if err != nil {
		return nil
	}
	return msg
}

// deliverNAS hands a decoded downlink, which the modem owns, to the
// observer and the state machines, and releases it when they return —
// except an Authentication Request, which waits out the SIM I/O latency
// and is released by runAuth.
func (m *Modem) deliverNAS(msg nas.Message) {
	if msg == nil {
		return
	}
	if o, observed := m.k.Observer().(NASObserver); observed {
		o.NAS(m.imsi, false, msg)
	}
	m.handleNAS(msg)
	if _, held := msg.(*nas.AuthenticationRequest); !held {
		m.msgs.Put(msg)
	}
}

func (m *Modem) downlinkData(pkt *radio.Packet) {
	m.stats.PacketsDown++
	m.markActivity()
	if m.hook.OnDownlinkData != nil {
		m.hook.OnDownlinkData(pkt)
	}
}

func (m *Modem) handleNAS(msg nas.Message) {
	switch t := msg.(type) {
	case *nas.AuthenticationRequest:
		m.handleAuthRequest(t)
	case *nas.SecurityModeCommand:
		m.sendNAS(&m.out.smcDone)
	case *nas.RegistrationAccept:
		m.handleRegistrationAccept(t)
	case *nas.RegistrationReject:
		m.handleRegistrationReject(t)
	case *nas.ServiceAccept:
		// idle→connected transition complete: flush the queued uplink.
		m.rrcConnected = true
		m.resuming = false
		for i, f := range m.pendingPkts {
			m.pendingPkts[i] = nil
			m.stats.PacketsUp++
			m.txPacket(f)
		}
		m.pendingPkts = m.pendingPkts[:0]
		m.markActivity()
	case *nas.ServiceReject:
		m.resuming = false
		m.dropPending()
		m.reportReject(nas.EPD5GMM, uint8(t.Cause))
		m.legacyRegistrationFailure(uint8(t.Cause))
	case *nas.ConfigurationUpdateCommand:
		if t.GUTI != nil {
			m.guti = t.GUTI.Value
		}
	case *nas.DeregistrationRequest:
		m.sendNAS(&m.out.deregAcc)
		m.localDeregister()
	case *nas.PDUSessionEstablishmentAccept:
		m.handleSessionAccept(t)
	case *nas.PDUSessionEstablishmentReject:
		m.handleSessionReject(t)
	case *nas.PDUSessionModificationCommand:
		m.handleSessionModification(t)
	case *nas.PDUSessionReleaseCommand:
		m.handleSessionReleaseCommand(t)
	}
}

func (m *Modem) reportReject(epd byte, code uint8) {
	if m.hook.OnReject != nil {
		m.hook.OnReject(epd, code)
	}
}

func (m *Modem) handleAuthRequest(req *nas.AuthenticationRequest) {
	// The modem forwards RAND/AUTN to the SIM unconditionally — it cannot
	// tell a SEED diagnosis delivery from a real challenge, which is what
	// keeps SEED firmware-compatible.
	m.k.AfterArg(2*simIOLatency, m.authArg, req)
}

func (m *Modem) runAuth(req *nas.AuthenticationRequest) {
	res := m.card.Authenticate(req.RAND, req.AUTN)
	m.msgs.Put(req) // held since handleAuthRequest
	switch res.Kind {
	case sim.AuthOK:
		m.lastIK = res.IK
		m.rekeyPending, m.rekey = true, nil
		m.out.authResp.RES = append(m.out.authResp.RES[:0], res.RES[:]...)
		m.sendNAS(&m.out.authResp)
	case sim.AuthSyncFailure:
		m.out.authFail.Cause = 21 // Synch failure
		m.out.authFail.AUTS = append(m.out.authFail.AUTS[:0], res.AUTS[:]...)
		m.sendNAS(&m.out.authFail)
	case sim.AuthMACFailure:
		m.out.authFail.Cause = 20 // MAC failure
		m.out.authFail.AUTS = m.out.authFail.AUTS[:0]
		m.sendNAS(&m.out.authFail)
	}
}

func (m *Modem) handleRegistrationAccept(acc *nas.RegistrationAccept) {
	m.cancelRegTimer()
	m.regAttempts = 0
	m.guti = acc.GUTI.Value
	m.sendNAS(&m.out.regDone)
	m.setState(StateRegistered)
	m.markActivity() // arm the inactivity clock from registration
	if m.autoSession && len(m.sessions) == 0 {
		m.EstablishSession(m.profile.DNN, nas.SessionIPv4)
	}
}

// maxSessionID is the highest ID EstablishSession hands out: 200–249 carry
// SendRawSessionRequest's DIAG reports.
const maxSessionID = 199

// allocSessionID returns the next session ID in 1..maxSessionID, going round
// from the last one handed out and skipping those of sessions the modem still
// holds; 0 when every ID is taken.
func (m *Modem) allocSessionID() uint8 {
	for tries := 0; tries < maxSessionID; tries++ {
		id := m.nextSession
		m.nextSession = id%maxSessionID + 1
		if _, held := m.Session(id); !held {
			return id
		}
	}
	return 0
}

// EstablishSession starts PDU session establishment for the given DNN.
// It returns the local session ID, or 0 when the modem is not registered
// (session management requires 5GMM registration, TS 24.501 §6.1.1) or
// holds a session under every ID.
func (m *Modem) EstablishSession(dnn string, typ nas.PDUSessionType) uint8 {
	if m.state != StateRegistered {
		return 0
	}
	id := m.allocSessionID()
	if id == 0 {
		return 0
	}
	m.nextPTI++
	s := m.spareSessions.Get()
	s.ID, s.DNN, s.Type, s.pti = id, dnn, typ, m.nextPTI
	m.addSession(s)
	m.sendSessionRequest(s)
	return id
}

func (m *Modem) sendSessionRequest(s *Session) {
	req := &m.out.sessReq
	*req = nas.PDUSessionEstablishmentRequest{
		SMHeader:    nas.SMHeader{PDUSessionID: s.ID, PTI: s.pti},
		SessionType: s.Type,
		DNN:         s.DNN,
	}
	if m.profile.SST != 0 {
		m.out.snssai = nas.SNSSAI{SST: m.profile.SST, SD: m.profile.SD}
		req.SNSSAI = &m.out.snssai
	}
	m.sendNAS(req)
	s.timer.Stop()
	s.timer = m.k.AfterArg(T3580, m.t3580Arg, s)
}

func (m *Modem) handleSessionAccept(acc *nas.PDUSessionEstablishmentAccept) {
	s, okS := m.Session(acc.PDUSessionID)
	if !okS {
		return
	}
	s.timer.Stop()
	s.attempts = 0
	s.Active = true
	s.Address = acc.Address
	// The session outlives the message: copy what it keeps of it.
	s.DNS = fill(s.DNS, s.dnsSpare, acc.DNSServers)
	s.TFT.Filters = fill(s.TFT.Filters, s.filterSpare, acc.TFT.Filters)
	s.QoS = acc.QoS
	if acc.DNN != "" {
		s.DNN = acc.DNN
	}
	m.k.Announce(sched.SessionUp, int(s.ID), 0)
	if m.hook.OnSessionUp != nil {
		m.hook.OnSessionUp(s)
	}
}

func (m *Modem) handleSessionModification(cmd *nas.PDUSessionModificationCommand) {
	s, okS := m.Session(cmd.PDUSessionID)
	if !okS || !s.Active {
		return
	}
	if cmd.TFT != nil {
		s.TFT.Filters = append(s.TFT.Filters[:0], cmd.TFT.Filters...)
	}
	if cmd.QoS != nil {
		s.QoS = *cmd.QoS
	}
	if len(cmd.DNSServers) > 0 {
		s.DNS = append(s.DNS[:0], cmd.DNSServers...)
		m.k.Announce(sched.SessionDNS, int(s.ID), s.DNS[0].Word())
	}
	m.out.modDone.SMHeader = nas.SMHeader{PDUSessionID: cmd.PDUSessionID, PTI: cmd.PTI}
	m.sendNAS(&m.out.modDone)
}

func (m *Modem) handleSessionReleaseCommand(cmd *nas.PDUSessionReleaseCommand) {
	m.out.relDone.SMHeader = nas.SMHeader{PDUSessionID: cmd.PDUSessionID, PTI: cmd.PTI}
	m.sendNAS(&m.out.relDone)
	_, hadSession := m.Session(cmd.PDUSessionID)
	m.dropSession(cmd.PDUSessionID)
	// A network-initiated release of the default data session makes the
	// OS re-request default connectivity shortly after, like Android's
	// ConnectivityService does (IMS or DIAG sessions may remain).
	if hadSession && m.autoSession && !m.hasDefaultSession() {
		m.k.After(500*time.Millisecond, func() {
			if m.state == StateRegistered && !m.hasDefaultSession() {
				m.EstablishSession(m.profile.DNN, nas.SessionIPv4)
			}
		})
	}
}

// hasDefaultSession reports whether a session for the default (profile)
// DNN exists, active or being established.
func (m *Modem) hasDefaultSession() bool {
	for _, s := range m.sessions {
		if s.DNN == m.profile.DNN {
			return true
		}
	}
	return false
}

// ReleaseSession initiates UE-side session teardown.
func (m *Modem) ReleaseSession(id uint8) {
	s, okS := m.Session(id)
	if !okS {
		return
	}
	m.out.relReq = nas.PDUSessionReleaseRequest{
		SMHeader: nas.SMHeader{PDUSessionID: id, PTI: s.pti},
		Cause:    36, // regular deactivation
	}
	m.sendNAS(&m.out.relReq)
	m.dropSession(id)
}

func (m *Modem) dropSession(id uint8) {
	s, okS := m.Session(id)
	if !okS {
		return
	}
	s.timer.Stop()
	m.removeSession(id)
	m.spareSessions.Put(s)
}

// dropAllSessions drops every session, lowest ID first.
func (m *Modem) dropAllSessions() {
	for len(m.sessions) > 0 {
		m.dropSession(m.sessions[0].ID)
	}
}

func (m *Modem) localDeregister() {
	m.dropAllSessions()
	m.cancelRegTimer()
	// Deregistration aborts a pending service-request resume along with
	// the sessions its queued packets belong to.
	m.resuming = false
	m.dropPending()
	if m.state == StateRegistered || m.state == StateRegistering {
		m.setState(StateDeregistered)
	}
}

// Deregister sends a deregistration request and drops local state.
func (m *Modem) Deregister() {
	if m.state != StateRegistered && m.state != StateRegistering {
		return
	}
	m.out.deregReq = nas.DeregistrationRequest{Identity: m.identity()}
	m.sendNAS(&m.out.deregReq)
	m.localDeregister()
}

// Reattach performs deregister + attach (SEED B2 "control-plane
// reattachment", also the tail of the legacy escalation).
func (m *Modem) Reattach() {
	m.Deregister()
	m.guti = "" // clean detach/attach: the fresh registration uses SUCI
	m.regAttempts = 0
	m.Attach()
}

// SimulateMobility emulates a tracking-area change: the modem silently
// drops its local registration (the network is not informed — its view of
// the UE may now be stale) and re-registers with whatever identity it has
// cached. This is the §3.1 trigger for identity-desync failures.
func (m *Modem) SimulateMobility() {
	if m.state != StateRegistered && m.state != StateRegistering {
		return
	}
	m.dropAllSessions()
	m.cancelRegTimer()
	m.setState(StateDeregistered)
	m.regAttempts = 0
	m.Attach()
}

// SendPacket transmits an uplink user-plane packet on a session. It
// reports false when the session is not active. The packet stays the
// caller's: the modem copies it, once, into the pooled frame that then
// carries it (and, turned around, its reply) across the stack. In idle mode
// the frame is queued behind a Service Request and flushed on resume.
func (m *Modem) SendPacket(pkt *radio.Packet) bool {
	s, okS := m.Session(pkt.SessionID)
	if !okS || !s.Active {
		return false
	}
	// Field by field rather than *f = *pkt: UE and Src are the modem's, and
	// a whole-struct copy of a value with strings is a bulk write barrier
	// while the collector marks. Every field is written (a frame from a
	// poisoning pool holds garbage).
	f := m.frames.Get()
	f.UE, f.SessionID, f.Proto = m.imsi, pkt.SessionID, pkt.Proto
	f.Src, f.Dst, f.SrcPort, f.DstPort = s.Address, pkt.Dst, pkt.SrcPort, pkt.DstPort
	f.Tag, f.Flow, f.Length, f.Meta = pkt.Tag, pkt.Flow, pkt.Length, pkt.Meta
	if !m.rrcConnected {
		m.pendingPkts = append(m.pendingPkts, f)
		m.resume()
		return true
	}
	m.markActivity()
	m.stats.PacketsUp++
	return m.txPacket(f)
}

// txPacket puts a frame the modem owns on the radio uplink. A frame the
// link refused was never in flight and goes straight back to the pool.
func (m *Modem) txPacket(f *radio.Packet) bool {
	if !m.tx(f) {
		m.frames.Put(f)
		return false
	}
	return true
}

// dropPending releases the frames queued behind a Service Request that
// will not complete.
func (m *Modem) dropPending() {
	for i, f := range m.pendingPkts {
		m.pendingPkts[i] = nil
		m.frames.Put(f)
	}
	m.pendingPkts = m.pendingPkts[:0]
}

// RequestModification sends a PDU Session Modification Request for an
// active session; the network answers with its authoritative
// configuration (SEED's B3 "data-plane modification" trigger).
func (m *Modem) RequestModification(id uint8) bool {
	s, okS := m.Session(id)
	if !okS || !s.Active {
		return false
	}
	m.nextPTI++
	m.out.modReq = nas.PDUSessionModificationRequest{
		SMHeader: nas.SMHeader{PDUSessionID: id, PTI: m.nextPTI},
	}
	m.sendNAS(&m.out.modReq)
	return true
}

// SendRawSessionRequest transmits a fire-and-forget PDU Session
// Establishment Request without creating a tracked session — the vehicle
// for SEED's DIAG-DNN uplink reports (Fig 7b), whose reject-ACK must not
// trigger the legacy retry machinery.
func (m *Modem) SendRawSessionRequest(dnn string) bool {
	if m.state != StateRegistered {
		return false
	}
	m.nextPTI++
	m.out.sessReq = nas.PDUSessionEstablishmentRequest{
		SMHeader:    nas.SMHeader{PDUSessionID: 200 + m.nextPTI%50, PTI: m.nextPTI},
		SessionType: nas.SessionIPv4,
		DNN:         dnn,
	}
	m.sendNAS(&m.out.sessReq)
	return true
}

// TransmitAPDU relays an APDU from the carrier app (TelephonyManager
// openLogicalChannel path) to the SIM, delivering the response to done
// after the SIM I/O latency. Every APDU waits the same, so responses come
// in the order the APDUs were sent.
func (m *Modem) TransmitAPDU(cmd sim.Command, done func(sim.Response)) {
	c := m.apduCalls.Get()
	c.cmd, c.done = cmd, done
	m.k.AfterArg(2*simIOLatency, m.apduArg, c)
}

// apduCall is an APDU on its way to the card.
type apduCall struct {
	cmd  sim.Command
	done func(sim.Response)
}

func (m *Modem) deliverAPDU(c *apduCall) {
	cmd, done := c.cmd, c.done
	m.apduCalls.Put(c)
	resp := m.card.Process(cmd)
	if o, observed := m.k.Observer().(APDUObserver); observed {
		o.APDU(m.imsi, cmd, resp)
	}
	if done != nil {
		done(resp)
	}
}
