package android

import (
	"testing"
	"time"

	"github.com/seed5g/seed/internal/sched"
)

// harness wires a monitor to controllable fake connectivity.
type harness struct {
	k       *sched.Kernel
	m       *Monitor
	healthy bool // probe outcome

	stalls  []string
	stallAt []time.Duration
	// actions are the rungs with an effect, re-register and restart modem,
	// as they ran, and taken the monitor's action count (Stats) at each:
	// rung 1 has no effect to record, only its count.
	actions   []Action
	taken     []int
	validated int // StallCleared transitions announced
}

// Transition makes the harness its kernel's observer.
func (h *harness) Transition(t sched.Transition, _, _ int) {
	if t == sched.StallCleared {
		h.validated++
	}
}

// took records a rung with an effect.
func (h *harness) took(a Action) {
	_, n := h.m.Stats()
	h.actions = append(h.actions, a)
	h.taken = append(h.taken, n)
}

// actionsTaken is the monitor's count of rungs run, rung 1 included.
func (h *harness) actionsTaken() int {
	_, n := h.m.Stats()
	return n
}

func newHarness(cfg Config) *harness {
	h := &harness{k: sched.New(1), healthy: true}
	h.m = NewMonitor(h.k, cfg, Hooks{
		Probe: func(attempt uint32) {
			ok := h.healthy
			h.k.After(50*time.Millisecond, func() { h.m.ProbeDone(attempt, ok) })
		},
		OnDataStall: func(reason string) {
			h.stalls = append(h.stalls, reason)
			h.stallAt = append(h.stallAt, h.k.Now())
		},
		Reregister:   func() { h.took(ActionReregister) },
		RestartModem: func() { h.took(ActionRestartModem) },
	})
	h.k.Observe(h)
	h.m.Start()
	return h
}

// The tests run the stock rules in virtual time: evaluation once a minute,
// 40 samples for the TCP rules.

// noteTCPFailures records n failed TCP attempts at the current instant.
func (h *harness) noteTCPFailures(n int) {
	for i := 0; i < n; i++ {
		h.m.NoteTCPOutcome(false)
	}
}

func TestTCPFailureRateRule(t *testing.T) {
	h := newHarness(DefaultConfig())
	h.k.RunFor(time.Second)
	h.noteTCPFailures(tcpMinSamples)
	h.k.RunFor(time.Minute)
	if len(h.stalls) != 1 || h.stalls[0] != "tcp" || h.stallAt[0] != evalInterval {
		t.Fatalf("stalls %v at %v, want one tcp stall at %v", h.stalls, h.stallAt, evalInterval)
	}
}

func TestTCPRateNeedsMinSamples(t *testing.T) {
	h := newHarness(DefaultConfig())
	h.healthy = false // not even the probe rule may fire before the evaluation
	h.k.RunFor(time.Second)
	h.noteTCPFailures(tcpMinSamples - 1)
	h.k.RunFor(time.Minute)
	if len(h.stalls) != 0 {
		t.Fatalf("stall declared on %d samples", tcpMinSamples-1)
	}
}

// TestTCPWindowExpiresOldSamples: failures that have left the one-minute
// window do not count. Two batches just under the threshold, a minute
// apart, would stall the rule if the first were still held at the second
// evaluation.
func TestTCPWindowExpiresOldSamples(t *testing.T) {
	h := newHarness(DefaultConfig())
	h.k.RunFor(time.Second)
	h.noteTCPFailures(tcpMinSamples - 1)
	h.k.RunFor(time.Minute)
	h.noteTCPFailures(tcpMinSamples - 1)
	h.k.RunFor(time.Minute)
	if len(h.stalls) != 0 {
		t.Fatalf("stalls = %v: expired samples were counted", h.stalls)
	}
}

func TestNoInboundRule(t *testing.T) {
	h := newHarness(DefaultConfig())
	h.k.RunFor(time.Second)
	for i := 0; i < tcpNoInboundOutbound; i++ {
		h.m.NotePacket(true)
	}
	h.k.RunFor(time.Minute)
	if len(h.stalls) != 1 || h.stalls[0] != "tcp" {
		t.Fatalf("stalls = %v", h.stalls)
	}
}

func TestInboundResetsOutboundCount(t *testing.T) {
	h := newHarness(DefaultConfig())
	for i := 0; i < tcpNoInboundOutbound; i++ {
		h.m.NotePacket(true)
	}
	h.m.NotePacket(false) // inbound clears the rule
	h.k.RunFor(time.Minute)
	if len(h.stalls) != 0 {
		t.Fatalf("stalls = %v", h.stalls)
	}
}

func TestDNSConsecutiveTimeouts(t *testing.T) {
	h := newHarness(DefaultConfig())
	h.k.RunFor(time.Second)
	for i := 0; i < dnsTimeoutsToStall-1; i++ {
		h.m.NoteDNSOutcome(false)
	}
	h.k.RunFor(time.Minute)
	if len(h.stalls) != 0 {
		t.Fatalf("stalled at %d timeouts", dnsTimeoutsToStall-1)
	}
	h.m.NoteDNSOutcome(false)
	h.k.RunFor(time.Minute)
	if len(h.stalls) != 1 || h.stalls[0] != "dns" {
		t.Fatalf("stalls = %v", h.stalls)
	}
}

func TestDNSSuccessResetsCounter(t *testing.T) {
	h := newHarness(DefaultConfig())
	for i := 0; i < dnsTimeoutsToStall-1; i++ {
		h.m.NoteDNSOutcome(false)
	}
	h.m.NoteDNSOutcome(true)
	h.m.NoteDNSOutcome(false)
	h.k.RunFor(time.Minute)
	if len(h.stalls) != 0 {
		t.Fatal("counter not reset by success")
	}
}

func TestProbeFailureDetection(t *testing.T) {
	h := newHarness(DefaultConfig())
	h.healthy = false
	h.k.RunFor(3 * time.Minute)
	if len(h.stalls) == 0 || h.stalls[0] != "probe" {
		t.Fatalf("stalls = %v", h.stalls)
	}
	// False positive characterization: a healthy network with a broken
	// probe server still triggers recovery actions (§3.3).
	if h.actionsTaken() == 0 {
		t.Fatal("no recovery actions after probe stall")
	}
}

func TestLadderSequenceAndEscalation(t *testing.T) {
	h := newHarness(RecommendedConfig()) // 21s/6s/16s
	h.healthy = false
	h.noteTCPFailures(tcpMinSamples)
	h.k.RunFor(5 * time.Minute)
	if h.actionsTaken() < 3 {
		t.Fatalf("%d actions taken, recorded %v", h.actionsTaken(), h.actions)
	}
	if h.actionsTaken() != len(h.actions)+1 {
		t.Fatalf("%d actions taken, %d recorded: want rung 1 alone unrecorded", h.actionsTaken(), len(h.actions))
	}
	// Rung 1 runs first and is counted; re-register is the second action
	// taken and restart-modem the third.
	want := []Action{ActionReregister, ActionRestartModem}
	for i, a := range want {
		if h.actions[i] != a || h.taken[i] != i+2 {
			t.Fatalf("recorded action[%d] = %v as action %d taken, want %v as %d", i, h.actions[i], h.taken[i], a, i+2)
		}
	}
	// Ladder keeps restarting the modem once exhausted.
	if h.actions[len(h.actions)-1] != ActionRestartModem {
		t.Fatal("ladder did not stay at modem restart")
	}
}

func TestRecoveryStopsLadder(t *testing.T) {
	h := newHarness(RecommendedConfig())
	h.healthy = false
	h.noteTCPFailures(tcpMinSamples)
	h.k.RunFor(evalInterval + 10*time.Second)
	if !h.m.Stalled() {
		t.Fatal("not stalled")
	}
	// Network heals; the next probe validates and stops the ladder.
	h.healthy = true
	h.k.RunFor(2 * time.Minute)
	if h.m.Stalled() {
		t.Fatal("still stalled after heal")
	}
	if h.validated == 0 {
		t.Fatal("validation not announced")
	}
	n := h.actionsTaken()
	h.k.RunFor(10 * time.Minute)
	if h.actionsTaken() != n {
		t.Fatal("ladder continued after validation")
	}
}

func TestReportValidatedShortCircuit(t *testing.T) {
	h := newHarness(DefaultConfig())
	h.healthy = false
	h.noteTCPFailures(tcpMinSamples)
	h.k.RunFor(time.Minute)
	if !h.m.Stalled() {
		t.Fatal("not stalled")
	}
	h.m.ReportValidated()
	if h.m.Stalled() || h.m.StallReason() != "" {
		t.Fatal("ReportValidated did not clear the stall")
	}
}

func TestStartStopIdempotent(t *testing.T) {
	h := newHarness(DefaultConfig())
	h.m.Start() // second start is a no-op
	h.m.Stop()
	h.m.Stop()
	h.noteTCPFailures(tcpMinSamples)
	h.k.RunFor(2 * time.Minute)
	if len(h.stalls) != 0 {
		t.Fatal("stopped monitor declared a stall")
	}
}

func TestDetectionLatencyShape(t *testing.T) {
	// TCP blocking with background traffic every 5 s is too sparse for the
	// TCP rate rule (12 attempts a minute, under its 40 samples), so the
	// probe rule detects it: two failed probes and the next evaluation,
	// about two minutes, the shape of Figure 3's sparse-traffic latencies.
	h := newHarness(DefaultConfig())
	// Traffic pattern: a TCP attempt every 5 s, all failing after onset.
	onset := 10 * time.Second
	h.healthy = false
	tick := h.k.Every(5*time.Second, func() {
		if h.k.Now() >= onset {
			h.m.NoteTCPOutcome(false)
		} else {
			h.m.NoteTCPOutcome(true)
		}
	})
	defer tick.Stop()
	h.k.RunFor(10 * time.Minute)
	if len(h.stalls) == 0 {
		t.Fatal("never detected")
	}
	if h.stalls[0] != "probe" {
		t.Fatalf("stalls = %v, want the probe rule first", h.stalls)
	}
	latency := h.stallAt[0] - onset
	if latency < 20*time.Second || latency > 5*time.Minute {
		t.Fatalf("TCP detection latency = %v, outside the plausible Android band", latency)
	}
}

func TestActionStringAndStats(t *testing.T) {
	if ActionCleanupConnections.String() != "cleanup-connections" ||
		ActionReregister.String() != "re-register" ||
		ActionRestartModem.String() != "restart-modem" ||
		Action(9).String() != "unknown" {
		t.Fatal("Action.String drifted")
	}
	h := newHarness(DefaultConfig())
	h.noteTCPFailures(tcpMinSamples)
	h.healthy = false
	h.k.RunFor(2 * time.Minute)
	stalls, actions := h.m.Stats()
	if stalls != 1 || actions == 0 {
		t.Fatalf("stats = %d stalls %d actions", stalls, actions)
	}
}

// TestMonitorWindowDoesNotGrow holds the TCP-outcome window to its own
// storage: an hour of outcomes at the video app's cadence (one a second)
// leaves the window within a few windows' worth of samples, and further
// minutes allocate nothing — the window is trimmed in place, not walked
// through its backing array with a fresh array every other minute.
func TestMonitorWindowDoesNotGrow(t *testing.T) {
	k := sched.New(1)
	cfg := DefaultConfig()
	m := NewMonitor(k, cfg, Hooks{}) // not started: the rules are evaluated by hand
	minutes := func(n int) {
		for i := 0; i < n*60; i++ {
			k.RunFor(time.Second)
			m.NoteTCPOutcome(true)
			if i%60 == 59 {
				m.evaluate()
			}
		}
	}
	minutes(60)
	perWindow := int(tcpWindow / time.Second)
	if len(m.tcp) > perWindow+1 {
		t.Fatalf("window holds %d samples after an evaluation, want at most %d", len(m.tcp), perWindow+1)
	}
	if cap(m.tcp) > 4*perWindow {
		t.Errorf("window capacity %d after an hour, want at most %d", cap(m.tcp), 4*perWindow)
	}
	if allocs := testing.AllocsPerRun(5, func() { minutes(10) }); allocs != 0 {
		t.Errorf("ten steady-state minutes allocate %.0f objects, want 0", allocs)
	}
	if m.Stalled() {
		t.Fatal("healthy outcomes declared a stall")
	}
}

// TestOutboundWindowBounded holds the no-inbound rule's bookkeeping to its
// window. Under a block nothing comes in for many minutes, and the list of
// outbound instants used to keep every packet sent (only an inbound packet
// cleared it) and be walked whole at every evaluation. What has left the
// window can never count again, so it is dropped as packets arrive, half
// the list at a time: ten blocked minutes at the video cadence leave at
// most two windows' worth, every entry the rule would count is still
// there, a steady minute allocates nothing, and the stall is declared at
// the instant it always was — the first evaluation that finds the
// threshold inside the window.
func TestOutboundWindowBounded(t *testing.T) {
	const cadence = time.Second // dataplane's video profile: one request a second
	cfg := DefaultConfig()
	perWindow := int(tcpWindow/cadence) + 1 // both ends of the window count

	h := newHarness(cfg)
	h.healthy = false // blocked: the probes fail too, so the stall stands
	// Thirty quiet seconds first: the evaluation at one minute then sees 30
	// packets, under the threshold of 40, and the one at two minutes a full
	// window.
	h.k.After(30*time.Second, func() {
		h.k.Every(cadence, func() { h.m.NotePacket(true) })
	})
	h.k.RunFor(10 * time.Minute)
	if len(h.stalls) != 1 || h.stalls[0] != "tcp" || h.stallAt[0] != 2*evalInterval {
		t.Fatalf("stalls %v at %v, want one tcp stall at %v", h.stalls, h.stallAt, 2*evalInterval)
	}
	if n := len(h.m.outboundSince); n > 2*perWindow {
		t.Fatalf("%d outbound instants held after ten blocked minutes, want at most two windows' %d", n, 2*perWindow)
	}
	// The count the unbounded list gave: nothing inside the window is missing.
	now, inWindow := h.k.Now(), 0
	for _, at := range h.m.outboundSince {
		if now-at <= tcpWindow {
			inWindow++
		}
	}
	if inWindow != perWindow {
		t.Fatalf("%d held instants are inside the window, want all %d", inWindow, perWindow)
	}

	// Steady state allocates nothing: the list slides inside its backing
	// array. (A monitor that is not started, so that the clock is the only
	// thing the kernel runs.)
	k := sched.New(1)
	m := NewMonitor(k, cfg, Hooks{})
	minute := func() {
		for i := 0; i < int(time.Minute/cadence); i++ {
			k.RunFor(cadence)
			m.NotePacket(true)
		}
	}
	for i := 0; i < 4; i++ {
		minute()
	}
	if n := testing.AllocsPerRun(5, minute); n != 0 {
		t.Fatalf("a steady minute of outbound packets allocates %.1f objects", n)
	}
	if n := len(m.outboundSince); n > 2*perWindow {
		t.Fatalf("%d outbound instants held, want at most %d", n, 2*perWindow)
	}
}
