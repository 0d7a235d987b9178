package core

import (
	"fmt"
	"time"

	"github.com/seed5g/seed/internal/cause"
	"github.com/seed5g/seed/internal/crypto5g"
	"github.com/seed5g/seed/internal/report"
	"github.com/seed5g/seed/internal/sched"
	"github.com/seed5g/seed/internal/sim"
)

// AppletAID is the SEED applet's application identifier.
const AppletAID = "A0-SEED-DIAG"

// Envelope opcodes on the carrier-app → applet channel.
const (
	envEnableRoot  byte = 0x01
	envAppReport   byte = 0x02
	envValidated   byte = 0x03
	envUploadRecs  byte = 0x04
	envDisableRoot byte = 0x05
)

// DeviceActions is the applet's outbound interface to the device: the
// recovery primitives the carrier app (and, with root, AT commands)
// expose. The applet's A1/A2 actions and user notifications go through
// proactive commands on the card instead.
type DeviceActions interface {
	// RunAT executes an AT command line (SEED-R only).
	RunAT(cmd string) error
	// UpdateDataConfig applies an updated data-plane configuration item
	// through the carrier-app UICC-privilege path (A3).
	UpdateDataConfig(kind cause.ConfigKind, value []byte)
	// ResetDataConnection cycles the data session make-before-break (A3).
	ResetDataConnection()
	// FastDataReset performs the Fig 6 DIAG-session reset (B3).
	FastDataReset()
	// RequestDataModification asks the network to re-push the session
	// configuration (B3 modification).
	RequestDataModification()
	// SendUplinkReport transmits sealed report fragments as DIAG DNNs
	// (Fig 7b; OPEN CHANNEL proactive semantics without root, AT with).
	SendUplinkReport(frags []string)
}

// appletProcLatency models in-SIM processing per decision.
const appletProcLatency = 10 * time.Millisecond

// AppletConfig carries the applet's timing policy.
type AppletConfig struct {
	// CPlaneWait is the 2 s timer before hardware/control-plane resets
	// (§4.4.2): transient failures that clear in time cancel the reset.
	CPlaneWait time.Duration
	// ConflictWindow suppresses delivery-report handling within this time
	// of a control/data-plane cause (5 s per §4.4.2).
	ConflictWindow time.Duration
	// RateLimitGap is the minimum spacing between identical actions.
	RateLimitGap time.Duration
	// TrialWindow is how long an online-learning trial waits for recovery
	// before moving to the next action.
	TrialWindow time.Duration
	// UseProactiveAT enables the §9 rootless-SEED-R extension: on modems
	// that support the TS 102 223 RUN AT COMMAND proactive command, the
	// applet drives the B-tier resets itself, without root on the phone.
	UseProactiveAT bool
	// TrialOrder overrides the Algorithm 1 trial sequence for unknown
	// causes (nil means LearningOrder). The policy optimizer searches over
	// permutations of this order.
	TrialOrder []ActionID
}

// trialOrder returns the configured trial sequence (LearningOrder unless
// a policy override is set).
func (c *AppletConfig) trialOrder() []ActionID {
	if len(c.TrialOrder) > 0 {
		return c.TrialOrder
	}
	return LearningOrder
}

// DefaultAppletConfig returns the paper's timing policy.
func DefaultAppletConfig() AppletConfig {
	return AppletConfig{
		CPlaneWait:     2 * time.Second,
		ConflictWindow: 5 * time.Second,
		RateLimitGap:   5 * time.Second,
		TrialWindow:    10 * time.Second,
	}
}

// AppletStats counts applet activity.
type AppletStats struct {
	DiagsReceived        int
	FragmentsSeen        int
	ReportsReceived      int
	ReportsSent          int
	UserNotices          int
	CongestionWaits      int
	SuppressedByConflict int
	Actions              map[ActionID]int
	TrialsStarted        int
	TrialsResolved       int
}

type trialState struct {
	c     cause.Cause
	idx   int
	last  ActionID
	timer sched.Timer
}

// SEEDApplet is the SIM applet: the diagnostic module (cause lookup,
// config parsing/storage, fragment reassembly, envelope decryption) and
// the decision module (Table 3 + the §4.4.2 timers + Algorithm 1's SIM
// side). It implements sim.Applet and sim.DiagnosisHandler.
type SEEDApplet struct {
	k      *sched.Kernel
	card   *sim.Card
	cfg    AppletConfig
	env    *crypto5g.Envelope
	device DeviceActions

	mode  Mode
	reasm Reassembler
	// plain is the opened diagnosis payload's buffer, ack the AUTS ACK
	// HandleAuthDiagnosis returns (the card copies it), and diags the
	// decoded diagnoses waiting out appletProcLatency, oldest first: every
	// one waits the same, so they fire in arrival order and handleNextDiag
	// takes the front.
	plain []byte
	ack   [diagAckLen]byte
	diags []DiagMessage
	// ok is the envelope channel's success response, which the card and
	// the carrier app only read.
	ok [1]byte

	lastPlaneCause  time.Duration // last control/data-plane cause handled
	hasPlaneCause   bool
	lastAction      map[ActionID]time.Duration
	pendingCP       sched.Timer
	congestionUntil time.Duration
	// cp is what the armed control-plane wait does when it ends (see
	// armCPlane): only one is armed at a time.
	cp cpWait

	records Records
	trial   *trialState

	// imsi tags the decision events the applet emits (trace.go); override
	// is the counterfactual hook, nil by default.
	imsi        string
	override    ActionOverride
	decisionSeq int32

	stats AppletStats

	// The applet's timer callbacks, stored once in NewApplet so that
	// arming one allocates nothing.
	nextDiagFn, cpFireFn func()
}

// cpWait is an armed control-plane wait: skip is traced when the
// congestion window is still open at its end; otherwise, with diag set,
// the reset Table 3 picks for msg runs (scheduleCPlane), else act.
type cpWait struct {
	skip DecisionEvent
	diag bool
	msg  DiagMessage
	act  ActionID
}

// SetActionOverride installs the counterfactual override hook.
func (a *SEEDApplet) SetActionOverride(o ActionOverride) { a.override = o }

// UpdateConfig applies mutate to the applet's configuration in place. The
// applet reads its config only when it decides, never at construction, so
// a policy applied to an already built (or restored) device is the policy
// the device would have been built with.
func (a *SEEDApplet) UpdateConfig(mutate func(*AppletConfig)) { mutate(&a.cfg) }

// Decisions returns how many execution decisions (execute calls, rate-
// limited or not) the applet has made — the counterfactual pin space.
func (a *SEEDApplet) Decisions() int { return int(a.decisionSeq) }

// trace emits ev, stamped with time and identity, to the kernel's observer
// if it traces decisions.
func (a *SEEDApplet) trace(ev DecisionEvent) {
	if t, traced := a.k.Observer().(DecisionTracer); traced {
		ev.At = a.k.Now()
		ev.IMSI = a.imsi
		t.Decision(ev)
	}
}

// NewApplet creates the SEED applet of subscriber imsi for a card
// provisioned with in-SIM key k. Call card.InstallApplet with the carrier
// MAC to deploy it.
func NewApplet(kern *sched.Kernel, card *sim.Card, imsi string, k [16]byte, cfg AppletConfig, device DeviceActions) *SEEDApplet {
	a := &SEEDApplet{
		k: kern, card: card, cfg: cfg, imsi: imsi,
		env:        NewChannelEnvelope(k),
		device:     device,
		mode:       ModeU,
		lastAction: make(map[ActionID]time.Duration),
		records:    Records{},
	}
	a.nextDiagFn, a.cpFireFn = a.handleNextDiag, a.cpFire
	return a
}

// Warm sizes the applet's diagnosis buffers and action counts ahead of a
// prototype snapshot (see core5g.Network.Warm): a buffer snapshotted empty
// grows again in every restored run.
func (a *SEEDApplet) Warm() {
	a.reasm.warm()
	if cap(a.plain) == 0 {
		a.plain = make([]byte, 0, warmPayload)
	}
	if cap(a.diags) == 0 {
		a.diags = make([]DiagMessage, 0, 2)
	}
	if a.stats.Actions == nil {
		a.stats.Actions = make(map[ActionID]int)
	}
}

// AID implements sim.Applet.
func (a *SEEDApplet) AID() string { return AppletAID }

// RAMBytes implements sim.Applet (the prototype's working set).
func (a *SEEDApplet) RAMBytes() int { return 2048 }

// CodeBytes implements sim.Applet (≈1244 lines of Javacard compiled).
func (a *SEEDApplet) CodeBytes() int { return 16 * 1024 }

// Mode returns the current privilege mode.
func (a *SEEDApplet) Mode() Mode { return a.mode }

// effectiveMode is the mode decisions run under: root, or the rootless
// proactive-AT path, both unlock the B-tier actions.
func (a *SEEDApplet) effectiveMode() Mode {
	if a.mode == ModeR || a.cfg.UseProactiveAT {
		return ModeR
	}
	return ModeU
}

// Stats returns a copy of the counters.
func (a *SEEDApplet) Stats() AppletStats {
	s := a.stats
	s.Actions = make(map[ActionID]int, len(a.stats.Actions))
	for k2, v := range a.stats.Actions {
		s.Actions[k2] = v
	}
	return s
}

// RangeActions calls fn with each action the applet executed and how many
// times, without copying the counts as Stats does.
func (a *SEEDApplet) RangeActions(fn func(a ActionID, n int)) {
	for id, n := range a.stats.Actions {
		fn(id, n)
	}
}

// Records returns a copy of the SIM-side learning records.
func (a *SEEDApplet) Records() Records { return a.records.Clone() }

// --- downlink diagnosis channel -----------------------------------------

// HandleAuthDiagnosis implements sim.DiagnosisHandler: it consumes one
// AUTN fragment and returns the AUTS ACK.
func (a *SEEDApplet) HandleAuthDiagnosis(autn [16]byte) []byte {
	a.stats.FragmentsSeen++
	seq := autn[0]
	full := a.reasm.Accept(autn)
	if full != nil {
		var err error
		a.plain, err = a.env.AppendOpen(a.plain[:0], crypto5g.Downlink, full)
		if err == nil {
			if msg, err2 := UnmarshalDiag(a.plain); err2 == nil {
				a.stats.DiagsReceived++
				a.diags = append(a.diags, msg)
				a.k.After(appletProcLatency, a.nextDiagFn)
			}
		}
	}
	a.ack = diagAck(seq)
	return a.ack[:]
}

// handleNextDiag handles the oldest diagnosis waiting out the processing
// latency.
func (a *SEEDApplet) handleNextDiag() {
	m := a.diags[0]
	a.diags = append(a.diags[:0], a.diags[1:]...)
	a.handleDiag(m)
}

// handleDiag is the decision module's entry point for infrastructure
// assistance (Table 3 + §5.2's four assistance types).
func (a *SEEDApplet) handleDiag(m DiagMessage) {
	now := a.k.Now()
	a.trace(DecisionEvent{Stage: StageDiagReceived, Plane: m.Plane, Code: m.Code, Kind: m.Kind, Seq: -1})
	if a.trial != nil && m.Kind != DiagCongestion {
		// An online-learning trial owns the current failure; concurrent
		// assistance would double-handle (the §4.4.2 conflict rule).
		a.trace(DecisionEvent{Stage: StageTrialConflict, Plane: m.Plane, Code: m.Code, Kind: m.Kind, Seq: -1})
		return
	}
	switch m.Kind {
	case DiagCongestion:
		// Do not reset into a congested cell; wait the embedded timer.
		a.stats.CongestionWaits++
		a.congestionUntil = now + time.Duration(m.WaitSeconds)*time.Second
		a.trace(DecisionEvent{Stage: StageCongestionWait, Plane: m.Plane, Code: m.Code, Kind: m.Kind, Seq: -1, Wait: a.congestionUntil - now})
		return

	case DiagSuggestAction:
		a.markPlaneCause(m.Plane)
		act := m.Action.ForMode(a.effectiveMode())
		a.trace(DecisionEvent{Stage: StageSuggested, Plane: m.Plane, Code: m.Code, Kind: m.Kind, Proposed: m.Action, Action: act, Seq: -1})
		if act == ActionA1 || act == ActionB1 || act == ActionA2 || act == ActionB2 {
			// Hardware/control-plane resets get the 2 s transient window.
			a.armCPlane(DecisionEvent{Plane: m.Plane, Code: m.Code, Kind: m.Kind, Action: act},
				cpWait{skip: DecisionEvent{Action: act}, act: act})
			return
		}
		a.execute(act)
		return

	case DiagUnknown:
		a.markPlaneCause(m.Plane)
		a.startTrial(cause.Cause{Plane: m.Plane, Code: m.Code})
		return
	}

	// DiagCause / DiagCauseConfig: standardized handling.
	info, std := cause.Lookup(cause.Cause{Plane: m.Plane, Code: m.Code})
	if std && info.UserAction {
		// Unrecoverable without the user (expired plan, unauthorized
		// subscriber): notify instead of resetting.
		a.stats.UserNotices++
		a.trace(DecisionEvent{Stage: StageUserNotice, Plane: m.Plane, Code: m.Code, Kind: m.Kind, Seq: -1})
		a.card.QueueProactive(sim.ProactiveCommand{
			Type: sim.ProactiveDisplayText,
			Text: fmt.Sprintf("Service issue: %s. Please contact your operator.", info.Name),
		})
		return
	}
	a.markPlaneCause(m.Plane)

	if m.Plane == cause.ControlPlane {
		a.scheduleCPlane(m)
		return
	}
	a.handleDPlaneCause(m)
}

func (a *SEEDApplet) markPlaneCause(p cause.Plane) {
	a.lastPlaneCause = a.k.Now()
	a.hasPlaneCause = true
}

// DiagClass is what the applet knows about a failure when it picks a
// reset: a row of Table 3.
type DiagClass uint8

// The diagnosis classes, in Table 3's row order.
const (
	ClassControl       DiagClass = iota // a control-plane cause
	ClassControlConfig                  // a control-plane cause with an updated config
	ClassData                           // a data-plane cause
	ClassDataConfig                     // a data-plane cause with an updated config
	ClassDelivery                       // an app/OS data-delivery report
)

// Decide is Table 3: the reset the applet executes for a failure of class
// c, without root (ModeU) or with it (ModeR). The applet decides through
// it and nothing else, so the printed table is the one the applet runs.
func Decide(c DiagClass, m Mode) ActionID {
	return [...][2]ActionID{ // {SEED-U, SEED-R}
		ClassControl:       {ActionA1, ActionB1},
		ClassControlConfig: {ActionA2, ActionB2},
		ClassData:          {ActionA1, ActionB3},
		ClassDataConfig:    {ActionA3, ActionB3},
		ClassDelivery:      {ActionA3, ActionB3},
	}[c][m-ModeU]
}

// armCPlane arms the 2 s wait before a control-plane/hardware reset,
// replacing any wait already armed, and traces armed as StageCPlaneArmed.
// When the wait ends, w runs (cpFire), unless the network's congestion
// window is still open, which skips the reset and traces w.skip as
// StageCongestionSkip. A recovery signal in the window cancels it.
func (a *SEEDApplet) armCPlane(armed DecisionEvent, w cpWait) {
	a.pendingCP.Stop()
	armed.Stage, armed.Seq, armed.Wait = StageCPlaneArmed, -1, a.cfg.CPlaneWait
	w.skip.Stage, w.skip.Seq = StageCongestionSkip, -1
	a.trace(armed)
	a.cp = w
	a.pendingCP = a.k.After(a.cfg.CPlaneWait, a.cpFireFn)
}

// cpFire ends the armed control-plane wait.
func (a *SEEDApplet) cpFire() {
	w := &a.cp
	if a.k.Now() < a.congestionUntil {
		a.trace(w.skip)
		return
	}
	if !w.diag {
		a.execute(w.act)
		return
	}
	m := w.msg
	class := ClassControl
	if m.Kind == DiagCauseConfig {
		a.applyCPlaneConfig(m.ConfigKind, m.Config)
		class = ClassControlConfig
	}
	act := Decide(class, a.effectiveMode())
	if act == ActionB2 {
		// B2 "reattachment with update": refresh the modem's cached
		// config from the just-written EFs, then reattach.
		a.card.QueueProactive(sim.ProactiveCommand{
			Type: sim.ProactiveRefresh, Mode: sim.RefreshFileChange,
			Files: []sim.FileID{sim.EFPLMNSel, sim.EFRATMode, sim.EFSNSSAI, sim.EFDNN},
		})
	}
	a.execute(act)
}

// scheduleCPlane arms the control-plane reset Table 3 picks for a cause.
func (a *SEEDApplet) scheduleCPlane(m DiagMessage) {
	ev := DecisionEvent{Plane: m.Plane, Code: m.Code, Kind: m.Kind}
	a.armCPlane(ev, cpWait{skip: ev, diag: true, msg: m})
}

// applyCPlaneConfig writes a refreshed control-plane configuration item
// into its EF so the subsequent reload picks it up.
func (a *SEEDApplet) applyCPlaneConfig(kind cause.ConfigKind, cfg []byte) {
	switch kind {
	case cause.ConfigSupportedRAT:
		_ = a.card.FS().Write(sim.EFRATMode, cfg)
	case cause.ConfigSNSSAI:
		_ = a.card.FS().Write(sim.EFSNSSAI, cfg)
	case cause.ConfigDNN:
		_ = a.card.FS().Write(sim.EFDNN, cfg)
	case cause.ConfigGeneric:
		// PLMN list and other generic refreshes.
		_ = a.card.FS().Write(sim.EFPLMNSel, cfg)
	}
}

func (a *SEEDApplet) handleDPlaneCause(m DiagMessage) {
	if a.k.Now() < a.congestionUntil {
		a.trace(DecisionEvent{Stage: StageCongestionSkip, Plane: m.Plane, Code: m.Code, Kind: m.Kind, Seq: -1})
		return
	}
	class := ClassData
	if m.Kind == DiagCauseConfig {
		// Store the refreshed config (DNN into its EF) and apply it via
		// the carrier app, then re-establish / modify.
		if m.ConfigKind == cause.ConfigDNN {
			_ = a.card.FS().Write(sim.EFDNN, m.Config)
		}
		a.device.UpdateDataConfig(m.ConfigKind, m.Config)
		class = ClassDataConfig
	}
	a.execute(Decide(class, a.effectiveMode()))
}

// --- carrier-app envelope channel ---------------------------------------

// HandleEnvelope implements sim.Applet: the carrier app's channel.
func (a *SEEDApplet) HandleEnvelope(data []byte) ([]byte, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("core: empty envelope")
	}
	switch data[0] {
	case envEnableRoot:
		a.mode = ModeR
		return a.ok[:], nil
	case envDisableRoot:
		a.mode = ModeU
		return a.ok[:], nil
	case envValidated:
		a.notifyRecovered()
		return a.ok[:], nil
	case envAppReport:
		r, err := report.Unmarshal(data[1:])
		if err != nil {
			return nil, err
		}
		a.stats.ReportsReceived++
		a.k.After(appletProcLatency, func() { a.handleDeliveryReport(r) })
		return a.ok[:], nil
	case envUploadRecs:
		out := MarshalRecords(a.records)
		a.records = Records{}
		return out, nil
	default:
		return nil, fmt.Errorf("core: unknown envelope opcode %#x", data[0])
	}
}

// handleDeliveryReport processes an app/OS data-delivery failure report
// (§4.4.2 last row of Table 3).
func (a *SEEDApplet) handleDeliveryReport(r report.FailureReport) {
	now := a.k.Now()
	// Conflict suppression: an ongoing control/data-plane handling within
	// the last 5 s explains the delivery failure; do not double-handle.
	if a.hasPlaneCause && now-a.lastPlaneCause < a.cfg.ConflictWindow {
		a.stats.SuppressedByConflict++
		a.trace(DecisionEvent{Stage: StageConflictSuppressed, Seq: -1, Wait: a.cfg.ConflictWindow - (now - a.lastPlaneCause)})
		return
	}
	if now < a.congestionUntil {
		a.trace(DecisionEvent{Stage: StageCongestionSkip, Seq: -1})
		return
	}
	a.trace(DecisionEvent{Stage: StageDeliveryReport, Seq: -1})
	// Forward the report to the infrastructure for policy checking
	// (sealed, fragmented into DIAG DNNs).
	sealed, err := a.env.Seal(crypto5g.Uplink, r.Marshal())
	if err == nil {
		a.stats.ReportsSent++
		a.device.SendUplinkReport(FragmentDNN(sealed))
	}
	// Local reset in parallel.
	a.execute(Decide(ClassDelivery, a.effectiveMode()))
}

// --- action execution ----------------------------------------------------

// execute runs one multi-tier reset action, subject to rate limiting.
// Every call consumes one decision-sequence index — including calls the
// rate limiter suppresses — so a counterfactual override's pin (seq) is
// stable across the alternatives it explores.
func (a *SEEDApplet) execute(action ActionID) {
	seq := a.decisionSeq
	a.decisionSeq++
	proposed := action
	if a.override != nil {
		if alt := a.override(seq, action); alt != 0 {
			action = alt.ForMode(a.effectiveMode())
			if action != proposed {
				a.trace(DecisionEvent{Stage: StageOverridden, Proposed: proposed, Action: action, Seq: seq})
			}
		}
	}
	now := a.k.Now()
	if last, seen := a.lastAction[action]; seen && now-last < a.cfg.RateLimitGap {
		a.trace(DecisionEvent{Stage: StageRateLimited, Proposed: proposed, Action: action, Seq: seq, Wait: a.cfg.RateLimitGap - (now - last)})
		return
	}
	a.lastAction[action] = now
	a.trace(DecisionEvent{Stage: StageExecute, Proposed: proposed, Action: action, Seq: seq})
	if a.stats.Actions == nil {
		a.stats.Actions = make(map[ActionID]int)
	}
	a.stats.Actions[action]++

	switch action {
	case ActionA1:
		a.card.QueueProactive(sim.ProactiveCommand{
			Type: sim.ProactiveRefresh, Mode: sim.RefreshInit,
		})
	case ActionA2:
		// Config EFs were written by applyCPlaneConfig; tell the modem
		// which files changed, then reload.
		a.card.QueueProactive(sim.ProactiveCommand{
			Type: sim.ProactiveRefresh, Mode: sim.RefreshFileChange,
			Files: []sim.FileID{sim.EFPLMNSel, sim.EFRATMode, sim.EFSNSSAI, sim.EFDNN},
		})
		a.card.QueueProactive(sim.ProactiveCommand{
			Type: sim.ProactiveRefresh, Mode: sim.RefreshInit,
		})
	case ActionA3:
		a.device.ResetDataConnection()
	case ActionB1:
		a.runAT("AT+CFUN=1,1")
	case ActionB2:
		a.runAT("AT+CGATT=0")
		a.runAT("AT+CGATT=1")
	case ActionB3:
		a.device.FastDataReset()
	}
}

// runAT issues an AT command through the carrier app (root) or, on the
// rootless proactive-AT path, directly from the SIM via the TS 102 223
// RUN AT COMMAND proactive command.
func (a *SEEDApplet) runAT(cmd string) {
	if a.mode == ModeR {
		_ = a.device.RunAT(cmd)
		return
	}
	a.card.QueueProactive(sim.ProactiveCommand{Type: sim.ProactiveRunATCommand, Text: cmd})
}

// --- recovery observation & online learning ------------------------------

// notifyRecovered is the recovery signal: a successful real AKA run or a
// carrier-app "connectivity validated" notification. It cancels a pending
// control-plane reset (the 2 s transient window) and resolves trials.
func (a *SEEDApplet) notifyRecovered() {
	if a.pendingCP.Stop() {
		a.trace(DecisionEvent{Stage: StageCPlaneCancelled, Seq: -1})
	}
	a.trace(DecisionEvent{Stage: StageRecovered, Seq: -1})
	if a.trial != nil {
		t := a.trial
		a.trial = nil
		t.timer.Stop()
		// Algorithm 1 line 4: record the action that resolved the cause.
		a.records.Add(t.c, t.last, 1)
		a.stats.TrialsResolved++
		a.trace(DecisionEvent{Stage: StageTrialResolved, Plane: t.c.Plane, Code: t.c.Code, Action: t.last, Seq: -1})
		a.persistRecords()
	}
}

// AuthSucceeded implements sim.DiagnosisHandler: a successful real AKA run
// is the recovery signal.
func (a *SEEDApplet) AuthSucceeded() { a.notifyRecovered() }

// startTrial begins Algorithm 1's SIM side for an unknown cause: try the
// supported resets sequentially from data plane to hardware.
func (a *SEEDApplet) startTrial(c cause.Cause) {
	if a.trial != nil {
		return // one trial at a time
	}
	a.stats.TrialsStarted++
	a.trace(DecisionEvent{Stage: StageTrialStart, Plane: c.Plane, Code: c.Code, Seq: -1})
	a.trial = &trialState{c: c, idx: -1}
	a.advanceTrial()
}

func (a *SEEDApplet) advanceTrial() {
	t := a.trial
	if t == nil {
		return
	}
	order := a.cfg.trialOrder()
	var prev ActionID
	if t.idx >= 0 {
		prev = order[t.idx].ForMode(a.effectiveMode())
	}
	for {
		t.idx++
		if t.idx >= len(order) {
			a.trial = nil // exhausted: give up (would notify the user)
			a.trace(DecisionEvent{Stage: StageTrialExhausted, Plane: t.c.Plane, Code: t.c.Code, Seq: -1})
			return
		}
		next := order[t.idx].ForMode(a.effectiveMode())
		if next == prev {
			continue // mode folding made this a duplicate of the last try
		}
		t.last = next
		break
	}
	a.trace(DecisionEvent{Stage: StageTrialStep, Plane: t.c.Plane, Code: t.c.Code, Action: t.last, Seq: -1, Wait: a.cfg.TrialWindow})
	a.execute(t.last)
	t.timer = a.k.After(a.cfg.TrialWindow, a.advanceTrial)
}

// TryKnownAction is the "suggested handling failed" fallback of §5.3: a
// suggested action that did not recover within the window degrades to the
// full trial sequence.
func (a *SEEDApplet) TryKnownAction(c cause.Cause, suggested ActionID) {
	a.execute(suggested.ForMode(a.effectiveMode()))
	a.k.After(a.cfg.TrialWindow, func() {
		if a.trial == nil && a.hasPlaneCause {
			// no recovery observed; fall back to the sequential trials
			a.startTrial(c)
		}
	})
}

// persistRecords writes the learning records into EFSEEDLog, exercising
// the EEPROM quota (the data volume argument of §5.3).
func (a *SEEDApplet) persistRecords() {
	_ = a.card.FS().Write(sim.EFSEEDLog, MarshalRecords(a.records))
}
