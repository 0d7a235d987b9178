// Package android emulates the mobile OS telephony behaviour the paper
// evaluates against in §2/§3.3: Android's timeout-based data-stall
// detection (captive-portal probe, TCP failure-rate rule, consecutive
// DNS timeout rule — note there is *no* UDP rule, which is why UDP
// blocking goes undetected unless it also breaks DNS) and the sequential
// "level-by-level" recovery ladder (clean up connections → re-register →
// restart modem) with its long inter-action timers.
package android

import (
	"time"

	"github.com/seed5g/seed/internal/sched"
)

// Android's fixed detection thresholds (AOSP defaults).
const (
	// probeInterval is the captive-portal probe period while validated.
	probeInterval = 40 * time.Second
	// probeTimeout is how long a probe waits before counting as failed.
	probeTimeout = 10 * time.Second
	// probeFailuresToStall is how many consecutive probe failures imply
	// a connection issue to the preset URL.
	probeFailuresToStall = 2

	// tcpWindow is the sliding window of the TCP failure-rate rule.
	tcpWindow = time.Minute
	// tcpFailRate is the failure-rate threshold (0.8 per AOSP).
	tcpFailRate = 0.8

	// evalInterval is how often the stall rules are evaluated. Stock
	// Android polls its data-stall signals about once a minute, which
	// dominates Figure 3's detection latencies.
	evalInterval = time.Minute
	// tcpMinSamples is the minimum TCP attempts in the window before the
	// rate rule applies.
	tcpMinSamples = 40
	// tcpNoInboundOutbound is the "over N outbound packets but no inbound
	// during the last minute" threshold.
	tcpNoInboundOutbound = 40

	// dnsTimeoutsToStall is the consecutive-DNS-timeout threshold.
	dnsTimeoutsToStall = 5
	// dnsWindow bounds how far apart those timeouts may be.
	dnsWindow = 30 * time.Minute
)

// Config carries the Android setting that varies: the recovery timers.
type Config struct {
	// ActionIntervals are the waits after each recovery rung before
	// declaring it failed and escalating. AOSP defaults to ~3 minutes;
	// the paper's tuned baseline uses 21 s / 6 s / 16 s.
	ActionIntervals []time.Duration
}

// DefaultConfig returns stock Android 12 behaviour.
func DefaultConfig() Config {
	return Config{
		ActionIntervals: []time.Duration{
			3 * time.Minute, 3 * time.Minute, 3 * time.Minute,
		},
	}
}

// RecommendedConfig applies the shorter recovery timers (21 s/6 s/16 s)
// the paper takes from the nationwide-reliability study for its baseline.
func RecommendedConfig() Config {
	return Config{ActionIntervals: []time.Duration{21 * time.Second, 6 * time.Second, 16 * time.Second}}
}

// Action is a rung of the sequential recovery ladder.
type Action uint8

const (
	ActionCleanupConnections Action = iota + 1
	ActionReregister
	ActionRestartModem
)

func (a Action) String() string {
	switch a {
	case ActionCleanupConnections:
		return "cleanup-connections"
	case ActionReregister:
		return "re-register"
	case ActionRestartModem:
		return "restart-modem"
	default:
		return "unknown"
	}
}

// Hooks connect the monitor to the rest of the device.
type Hooks struct {
	// Probe issues connectivity check number attempt to the preset URL;
	// the device reports its outcome with Monitor.ProbeDone (or not at all
	// — the monitor enforces the timeout).
	Probe func(attempt uint32)
	// Reregister re-registers to the network.
	Reregister func()
	// RestartModem power-cycles the modem.
	RestartModem func()
	// OnDataStall fires when a stall is reported (the Connectivity
	// Diagnostics signal SEED's carrier app subscribes to). reason is
	// "probe", "tcp" or "dns".
	OnDataStall func(reason string)
}

// The detection rules, as sched.StallDeclared carries them.
const (
	reasonProbe = iota + 1
	reasonTCP
	reasonDNS
)

// StallReason names the rule a sched.StallDeclared operand stands for:
// "probe", "tcp" or "dns", the reasons OnDataStall reports.
func StallReason(code int) string {
	switch code {
	case reasonProbe:
		return "probe"
	case reasonTCP:
		return "tcp"
	case reasonDNS:
		return "dns"
	default:
		return "unknown"
	}
}

type tcpSample struct {
	at time.Duration
	ok bool
}

// Monitor is the Android connectivity/data-stall state machine.
type Monitor struct {
	k    *sched.Kernel
	cfg  Config
	hook Hooks

	running bool
	// gate reports whether a (nominally working) network exists. Android
	// only runs validation and data-stall recovery while a network is up;
	// with no registration at all the modem retries autonomously and the
	// ladder stays out of the way. A nil gate means "always available".
	gate func() bool

	tcp           []tcpSample
	outboundSince []time.Duration
	lastInbound   time.Duration
	dnsFails      int
	lastDNSFail   time.Duration

	probeFails int
	probeBusy  bool
	// probeGen numbers probe attempts. Both probe completion paths (the
	// reply callback and the timeout) check it so a late outcome from a
	// superseded attempt is ignored. Keeping the "already answered" state
	// in fields rather than a captured local also keeps the monitor
	// snapshot-safe: an in-flight probe restores and completes correctly
	// (see the actor snapshot contract in DESIGN.md).
	probeGen uint32
	// probeTimer is the timeout of attempt probeGen (see probeTimedOut).
	probeTimer   sched.Timer
	stalled      bool
	stallReason  string
	ladderIdx    int
	ladderTimer  sched.Timer
	evalTicker   sched.Ticker
	probeTicker  sched.Ticker
	stallsSeen   int
	actionsTaken int

	// The monitor's timer callbacks, stored once in NewMonitor so that
	// arming one allocates nothing.
	evaluateFn, probeFn, probeTimeoutFn, ladderWaitFn, ladderCheckFn func()
}

// NewMonitor creates an Android monitor.
func NewMonitor(k *sched.Kernel, cfg Config, hooks Hooks) *Monitor {
	m := &Monitor{k: k, cfg: cfg, hook: hooks, lastInbound: -1}
	m.evaluateFn, m.probeFn, m.probeTimeoutFn = m.evaluate, m.probe, m.probeTimedOut
	m.ladderWaitFn, m.ladderCheckFn = m.ladderWaited, m.ladderCheck
	return m
}

// SetGate installs the network-availability gate (see Monitor.gate).
func (m *Monitor) SetGate(gate func() bool) { m.gate = gate }

func (m *Monitor) gated() bool { return m.gate != nil && !m.gate() }

// Start begins periodic evaluation and probing.
func (m *Monitor) Start() {
	if m.running {
		return
	}
	m.running = true
	m.evalTicker.Start(m.k, evalInterval, m.evaluateFn)
	m.probeTicker.Start(m.k, probeInterval, m.probeFn)
}

// Stop halts the monitor.
func (m *Monitor) Stop() {
	if !m.running {
		return
	}
	m.running = false
	m.evalTicker.Stop()
	m.probeTicker.Stop()
	m.ladderTimer.Stop()
}

// Stalled reports whether a data stall is currently declared.
func (m *Monitor) Stalled() bool { return m.stalled }

// StallReason returns the rule that fired ("probe", "tcp", "dns").
func (m *Monitor) StallReason() string { return m.stallReason }

// Stats returns (stalls declared, recovery actions executed).
func (m *Monitor) Stats() (stalls, actions int) { return m.stallsSeen, m.actionsTaken }

// NoteTCPOutcome records a TCP connection attempt result.
func (m *Monitor) NoteTCPOutcome(ok bool) {
	m.tcp = append(m.tcp, tcpSample{at: m.k.Now(), ok: ok})
}

// NoteDNSOutcome records a DNS query result (answered or timed out).
func (m *Monitor) NoteDNSOutcome(ok bool) {
	if ok {
		m.dnsFails = 0
		return
	}
	now := m.k.Now()
	if m.dnsFails > 0 && now-m.lastDNSFail > dnsWindow {
		m.dnsFails = 0
	}
	m.dnsFails++
	m.lastDNSFail = now
}

// NotePacket records user-plane packet movement for the no-inbound rule.
func (m *Monitor) NotePacket(outbound bool) {
	now := m.k.Now()
	if outbound {
		// What has left the window can never count again (the clock only
		// advances), and under a block — nothing inbound for up to half an
		// hour — it used to pile up, every packet sent, for evaluate to
		// walk. Once the older half of the list has left the window it is
		// dropped, in place: at most two windows are held, and a packet
		// moves, amortised, one entry.
		out := m.outboundSince
		if n := len(out); n > 0 && now-out[n/2] > tcpWindow {
			cut := n/2 + 1
			for cut < n && now-out[cut] > tcpWindow {
				cut++
			}
			out = append(out[:0], out[cut:]...)
		}
		m.outboundSince = append(out, now)
	} else {
		m.lastInbound = now
		m.outboundSince = m.outboundSince[:0]
	}
}

func (m *Monitor) probe() {
	if m.hook.Probe == nil || m.probeBusy || m.gated() {
		return
	}
	m.probeBusy = true
	m.probeGen++
	m.hook.Probe(m.probeGen)
	m.probeTimer = m.k.After(probeTimeout, m.probeTimeoutFn)
}

// ProbeDone reports the outcome of probe attempt number attempt (the
// number Hooks.Probe was handed). A superseded attempt's, or one that
// arrives after its timeout, is ignored.
func (m *Monitor) ProbeDone(attempt uint32, ok bool) {
	if attempt != m.probeGen || !m.probeBusy {
		return
	}
	m.probeBusy = false
	if ok {
		m.probeFails = 0
		m.onValidated()
	} else {
		m.probeFails++
	}
}

// probeTimedOut is a probe's timeout. Attempts start in time order and
// each times out probeTimeout later, so timeouts fire in attempt order:
// while the latest attempt's is still pending, the one firing belongs to
// a superseded attempt and does nothing.
func (m *Monitor) probeTimedOut() {
	if !m.probeTimer.Pending() && m.probeBusy {
		m.probeBusy = false
		m.probeFails++
	}
}

func (m *Monitor) evaluate() {
	if m.stalled || m.gated() {
		return
	}
	now := m.k.Now()

	// TCP failure-rate rule over the sliding window.
	cut := 0
	for cut < len(m.tcp) && now-m.tcp[cut].at > tcpWindow {
		cut++
	}
	if cut > 0 {
		// Copied down in place: re-slicing from cut would walk the window
		// through its backing array and make every append re-allocate it.
		m.tcp = append(m.tcp[:0], m.tcp[cut:]...)
	}
	fails := 0
	for _, s := range m.tcp {
		if !s.ok {
			fails++
		}
	}
	if len(m.tcp) >= tcpMinSamples &&
		float64(fails)/float64(len(m.tcp)) >= tcpFailRate {
		m.declareStall(reasonTCP)
		return
	}

	// Outbound-but-no-inbound rule.
	recentOut := 0
	for _, at := range m.outboundSince {
		if now-at <= tcpWindow {
			recentOut++
		}
	}
	if recentOut >= tcpNoInboundOutbound {
		m.declareStall(reasonTCP)
		return
	}

	// Consecutive DNS timeouts.
	if m.dnsFails >= dnsTimeoutsToStall {
		m.declareStall(reasonDNS)
		return
	}

	// Probe failures.
	if m.probeFails >= probeFailuresToStall {
		m.declareStall(reasonProbe)
		return
	}
}

func (m *Monitor) declareStall(rule int) {
	reason := StallReason(rule)
	m.stalled = true
	m.stallReason = reason
	m.stallsSeen++
	m.ladderIdx = 0
	m.k.Announce(sched.StallDeclared, rule, m.stallsSeen)
	if m.hook.OnDataStall != nil {
		m.hook.OnDataStall(reason)
	}
	m.runLadder()
}

// runLadder executes the next recovery rung, then waits the configured
// interval; if connectivity has not validated by then, it escalates.
func (m *Monitor) runLadder() {
	if !m.stalled {
		return
	}
	actions := []Action{ActionCleanupConnections, ActionReregister, ActionRestartModem}
	idx := m.ladderIdx
	if idx >= len(actions) {
		idx = len(actions) - 1 // keep restarting the modem
	}
	a := actions[idx]
	m.actionsTaken++
	// Rung 1, cleaning up connections, has no modelled effect: apps
	// reconnect on their own cadence. It is counted and waits its interval.
	switch a {
	case ActionReregister:
		if m.hook.Reregister != nil {
			m.hook.Reregister()
		}
	case ActionRestartModem:
		if m.hook.RestartModem != nil {
			m.hook.RestartModem()
		}
	}
	wait := m.cfg.ActionIntervals[len(m.cfg.ActionIntervals)-1]
	if idx < len(m.cfg.ActionIntervals) {
		wait = m.cfg.ActionIntervals[idx]
	}
	m.ladderIdx++
	m.ladderTimer = m.k.After(wait, m.ladderWaitFn)
}

// ladderWaited ends a rung's wait: re-probe before escalating.
func (m *Monitor) ladderWaited() {
	m.probe()
	m.k.After(probeTimeout+time.Second, m.ladderCheckFn)
}

func (m *Monitor) ladderCheck() {
	if m.stalled {
		m.runLadder()
	}
}

// onValidated handles a successful connectivity validation. A probe
// success alone does not reset the TCP/DNS rule counters — those have
// their own reset semantics (a DNS answer resets the timeout streak, an
// inbound packet resets the outbound count); only recovering from a
// declared stall clears the detectors.
func (m *Monitor) onValidated() {
	if m.stalled {
		m.stalled = false
		m.stallReason = ""
		m.dnsFails = 0
		m.outboundSince = m.outboundSince[:0]
		m.tcp = m.tcp[:0]
		m.ladderTimer.Stop()
		m.k.Announce(sched.StallCleared, 0, 0)
	}
}

// ReportValidated lets the data plane short-circuit validation when real
// traffic flows again (Android treats resumed traffic as validation).
func (m *Monitor) ReportValidated() {
	m.probeFails = 0
	m.onValidated()
}
