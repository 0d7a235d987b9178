package dataplane

import (
	"fmt"
	"time"

	"github.com/seed5g/seed/internal/android"
	"github.com/seed5g/seed/internal/nas"
	"github.com/seed5g/seed/internal/radio"
	"github.com/seed5g/seed/internal/report"
	"github.com/seed5g/seed/internal/sched"
)

// AppKind enumerates the five §7.1.2 application profiles.
type AppKind uint8

const (
	Video AppKind = iota + 1
	LiveStream
	Web
	Navigation
	EdgeAR
)

func (k AppKind) String() string {
	switch k {
	case Video:
		return "video"
	case LiveStream:
		return "live-stream"
	case Web:
		return "web"
	case Navigation:
		return "navigation"
	case EdgeAR:
		return "edge-AR"
	default:
		return fmt.Sprintf("AppKind(%d)", uint8(k))
	}
}

// Buffer returns the app's playback buffer (masks short outages).
func (k AppKind) Buffer() time.Duration { return Spec(k).Buffer }

// AppSpec describes an application's traffic pattern.
type AppSpec struct {
	Kind     AppKind
	Interval time.Duration // request cadence
	Proto    uint8
	Server   nas.Addr
	Port     uint16
	// Buffer is the playback buffer that masks short outages (video ≈30 s,
	// live ≈3 s, AR none).
	Buffer time.Duration
	// NeedsDNS makes the app resolve its server name periodically; its
	// requests then depend on a fresh-enough resolution.
	NeedsDNS bool
	// DNSEvery issues one DNS query per this many requests.
	DNSEvery int
	// DNSTTL is how long a resolution stays usable; once it expires with
	// no fresh answer, requests fail locally as DNS failures.
	DNSTTL time.Duration
	// Timeout is the per-request response deadline.
	Timeout time.Duration
}

// Spec returns the paper-calibrated profile for an application kind.
func Spec(kind AppKind) AppSpec {
	switch kind {
	case Video:
		// Segment fetches reuse long-lived connections: no DNS dependence.
		return AppSpec{Kind: kind, Interval: time.Second, Proto: nas.ProtoTCP,
			Server: AppServerAddr, Port: 443, Buffer: 30 * time.Second,
			Timeout: 2 * time.Second}
	case LiveStream:
		return AppSpec{Kind: kind, Interval: 500 * time.Millisecond, Proto: nas.ProtoUDP,
			Server: AppServerAddr, Port: 8801, Buffer: 3 * time.Second,
			NeedsDNS: true, DNSEvery: 20, DNSTTL: time.Minute, Timeout: time.Second}
	case Web:
		// Browsing resolves roughly once a minute (OS cache in front of
		// per-click lookups), which paces Android's DNS-timeout rule.
		return AppSpec{Kind: kind, Interval: 5 * time.Second, Proto: nas.ProtoTCP,
			Server: AppServerAddr, Port: 443, Buffer: 0,
			NeedsDNS: true, DNSEvery: 20, DNSTTL: 3 * time.Minute, Timeout: 2 * time.Second}
	case Navigation:
		return AppSpec{Kind: kind, Interval: 2 * time.Second, Proto: nas.ProtoTCP,
			Server: AppServerAddr, Port: 443, Buffer: 0,
			NeedsDNS: false, DNSEvery: 0, Timeout: 2 * time.Second}
	case EdgeAR:
		return AppSpec{Kind: kind, Interval: 100 * time.Millisecond, Proto: nas.ProtoUDP,
			Server: EdgeServerAddr, Port: 9000, Buffer: 0,
			NeedsDNS: false, DNSEvery: 0, Timeout: 500 * time.Millisecond}
	default:
		panic(fmt.Sprintf("dataplane: unknown app kind %d", kind))
	}
}

// AppStats counts an app's traffic outcomes.
type AppStats struct {
	Requests  int
	Successes int
	Failures  int
	Reports   int
}

// App is one emulated application generating its traffic pattern over the
// device's data session.
type App struct {
	k    *sched.Kernel
	spec AppSpec

	// send transmits an uplink packet on the current session; bound by
	// the testbed. Returns false when no session is active. The packet is
	// the app's (it is built in scratch): send may write the session's
	// fields into it and copies what it transmits.
	send    func(*radio.Packet) bool
	scratch radio.Packet
	// dnsServer returns the session's current resolver.
	dnsServer func() nas.Addr

	monitor  *android.Monitor
	reporter func(report.FailureReport)

	reportThreshold int
	lastReport      time.Duration
	consecReqFails  int
	consecDNSFails  int
	reqSeq          int
	// pending holds the outstanding requests in issue order. An app has
	// one to three at a time, so matching a reply is a short scan.
	pending       []*request
	ticker        *sched.Ticker
	lastSuccessAt time.Duration
	lastDNSOK     time.Duration

	// Outstanding-request records are recycled through reqFree, and each
	// response deadline is armed with the stored onTimeout callback
	// carrying the record, so a request allocates nothing.
	reqFree   []*request
	onTimeout func(any) // arg: *request

	stats AppStats
}

// request is one outstanding app request or DNS query.
type request struct {
	tag   radio.FlowTag
	dns   bool
	timer sched.Timer
}

// NewApp creates an application bound to the device's send path.
func NewApp(k *sched.Kernel, spec AppSpec, send func(*radio.Packet) bool, dnsServer func() nas.Addr) *App {
	a := &App{
		k: k, spec: spec, send: send, dnsServer: dnsServer,
		reportThreshold: 2,
		lastSuccessAt:   -1,
	}
	a.onTimeout = func(v any) {
		r := v.(*request)
		dns := r.dns
		a.settle(r)
		a.requestFailed(dns)
	}
	return a
}

// owner is the owner byte of this app's flow tags.
func (a *App) owner() uint8 { return uint8(a.spec.Kind) + 1 }

// tag returns the flow tag of this cycle's request or DNS query.
func (a *App) tag(class uint8) radio.FlowTag {
	return radio.NewFlowTag(a.owner(), class, a.reqSeq)
}

// await records a sent request and arms its response deadline.
func (a *App) await(tag radio.FlowTag, dns bool) {
	var r *request
	if n := len(a.reqFree); n > 0 {
		r = a.reqFree[n-1]
		a.reqFree = a.reqFree[:n-1]
	} else {
		r = new(request)
	}
	r.tag, r.dns = tag, dns
	r.timer = a.k.AfterArg(a.spec.Timeout, a.onTimeout, r)
	a.pending = append(a.pending, r)
}

// settle retires an outstanding request: deadline cancelled, record back
// on the free list.
func (a *App) settle(r *request) {
	r.timer.Stop()
	for i, p := range a.pending {
		if p == r {
			last := len(a.pending) - 1
			copy(a.pending[i:], a.pending[i+1:])
			a.pending[last] = nil
			a.pending = a.pending[:last]
			break
		}
	}
	*r = request{}
	a.reqFree = append(a.reqFree, r)
}

// AttachMonitor feeds the app's outcomes into the Android monitor.
func (a *App) AttachMonitor(m *android.Monitor) { a.monitor = m }

// AttachReporter enables the SEED fast failure-report path.
func (a *App) AttachReporter(fn func(report.FailureReport)) { a.reporter = fn }

// Stats returns a copy of the counters.
func (a *App) Stats() AppStats { return a.stats }

// Spec returns the app's traffic profile.
func (a *App) Spec() AppSpec { return a.spec }

// LastSuccess returns the virtual time of the last successful response
// (-1 before any).
func (a *App) LastSuccess() time.Duration { return a.lastSuccessAt }

// Start begins traffic generation. The app starts with a warm DNS cache.
func (a *App) Start() {
	if a.ticker != nil {
		return
	}
	a.lastDNSOK = a.k.Now()
	a.ticker = a.k.Every(a.spec.Interval, a.cycle)
}

// Stop halts traffic generation and cancels outstanding requests, oldest
// first.
func (a *App) Stop() {
	if a.ticker == nil {
		return
	}
	a.ticker.Stop()
	a.ticker = nil
	for len(a.pending) > 0 {
		a.settle(a.pending[0])
	}
}

func (a *App) cycle() {
	a.reqSeq++
	if a.spec.NeedsDNS && a.spec.DNSEvery > 0 && a.reqSeq%a.spec.DNSEvery == 0 {
		a.sendDNSQuery()
	}
	// A DNS-dependent app cannot issue requests once its resolution has
	// gone stale with no fresh answer.
	if a.spec.NeedsDNS && a.spec.DNSTTL > 0 && a.k.Now()-a.lastDNSOK > a.spec.DNSTTL {
		a.stats.Requests++
		a.stats.Failures++
		a.consecReqFails++
		a.maybeReport(true) // the app knows resolution is what failed
		return
	}
	a.sendRequest()
}

// build writes a packet into the app's scratch, field by field (a struct
// literal would be built aside and copied over). UE, session and source
// address are the sender's to fill in; the label stays empty.
func (a *App) build(proto uint8, dst nas.Addr, srcPort, dstPort uint16, tag radio.FlowTag, length int, meta string) *radio.Packet {
	p := &a.scratch
	p.Proto, p.Dst = proto, dst
	p.SrcPort, p.DstPort = srcPort, dstPort
	p.Tag, p.Length, p.Meta = tag, length, meta
	return p
}

func (a *App) sendRequest() {
	a.stats.Requests++
	id := a.tag(radio.FlowRequest)
	sent := a.send(a.build(a.spec.Proto, a.spec.Server, uint16(20000+a.reqSeq%20000), a.spec.Port, id, 600, ""))
	if a.monitor != nil && sent {
		a.monitor.NotePacket(true)
	}
	if !sent {
		// No session: counts as an immediate transport failure.
		a.requestFailed(false)
		return
	}
	a.await(id, false)
}

func (a *App) sendDNSQuery() {
	id := a.tag(radio.FlowDNS)
	if !a.send(a.build(nas.ProtoUDP, a.dnsServer(), uint16(30000+a.reqSeq%20000), 53, id, 64, "app.example.com")) {
		a.requestFailed(true)
		return
	}
	a.await(id, true)
}

// outstanding returns the pending request pkt answers, or nil: the tag
// must be of this app's kind and match a request still waiting.
func (a *App) outstanding(tag radio.FlowTag) *request {
	if tag.Owner() != a.owner() {
		return nil
	}
	for _, r := range a.pending {
		if r.tag == tag {
			return r
		}
	}
	return nil
}

// HandleDownlink takes a downlink packet belonging to this app's flows. It
// reports whether the packet was recognized. The packet is borrowed for the
// call: the app keeps nothing of it.
func (a *App) HandleDownlink(pkt *radio.Packet) bool {
	r := a.outstanding(pkt.Tag)
	if r == nil {
		return false
	}
	a.settle(r)
	isDNS := len(pkt.Meta) >= 10 && pkt.Meta[:10] == "dns-answer"
	a.stats.Successes++
	if isDNS {
		a.consecDNSFails = 0
	} else {
		a.consecReqFails = 0
	}
	if isDNS {
		a.lastDNSOK = a.k.Now()
	}
	if a.monitor != nil {
		a.monitor.NotePacket(false)
		if isDNS {
			a.monitor.NoteDNSOutcome(true)
		} else if a.spec.Proto == nas.ProtoTCP {
			a.monitor.NoteTCPOutcome(true)
		}
	}
	if !isDNS {
		// Only application payload counts as app-level success; a DNS
		// answer alone does not un-stall the app.
		a.lastSuccessAt = a.k.Now()
	}
	return true
}

func (a *App) requestFailed(wasDNS bool) {
	a.stats.Failures++
	if wasDNS {
		a.consecDNSFails++
	} else {
		a.consecReqFails++
	}
	if a.monitor != nil {
		if wasDNS {
			a.monitor.NoteDNSOutcome(false)
		} else if a.spec.Proto == nas.ProtoTCP {
			a.monitor.NoteTCPOutcome(false)
		}
		// Android has no UDP rule: non-DNS UDP failures are invisible.
	}
	a.maybeReport(wasDNS)
}

func (a *App) maybeReport(wasDNS bool) {
	fails := a.consecReqFails
	if wasDNS {
		fails = a.consecDNSFails
	}
	if a.reporter == nil || fails < a.reportThreshold {
		return
	}
	now := a.k.Now()
	if a.lastReport != 0 && now-a.lastReport < time.Second {
		return
	}
	a.lastReport = now
	a.stats.Reports++
	a.k.Announce(sched.AppReported, int(a.spec.Kind), a.stats.Reports)
	var r report.FailureReport
	switch {
	case wasDNS:
		r = report.FailureReport{Type: report.FailDNS, Direction: report.DirBoth, Domain: "app.example.com"}
	case a.spec.Proto == nas.ProtoUDP:
		r = report.FailureReport{Type: report.FailUDP, Direction: report.DirBoth,
			Addr: [4]byte(a.spec.Server), Port: a.spec.Port}
	default:
		r = report.FailureReport{Type: report.FailTCP, Direction: report.DirBoth,
			Addr: [4]byte(a.spec.Server), Port: a.spec.Port}
	}
	a.reporter(r)
}

// Mux dispatches downlink packets to the apps owning their flows.
type Mux struct {
	apps []*App
	// OnUnclaimed receives packets no app recognized (e.g. probe
	// responses owned by the Android monitor), borrowed like the apps'.
	OnUnclaimed func(*radio.Packet)
}

// Register adds an app to the mux.
func (m *Mux) Register(a *App) { m.apps = append(m.apps, a) }

// Dispatch routes one downlink packet, which its caller still owns when
// Dispatch returns.
func (m *Mux) Dispatch(pkt *radio.Packet) {
	for _, a := range m.apps {
		if a.HandleDownlink(pkt) {
			return
		}
	}
	if m.OnUnclaimed != nil {
		m.OnUnclaimed(pkt)
	}
}
