package core

import (
	"fmt"
	"time"

	"github.com/seed5g/seed/internal/cause"
)

// Decision tracing is the observability layer over Algorithm 1: every
// decision point in the applet's decision module and the plugin's Figure 8
// tree emits a structured DecisionEvent to the kernel's observer
// (sched.Kernel.Observe) when that is a DecisionTracer.
//
// Contract (DESIGN.md "Observing a run"): an observer is pure observation.
// It must never draw from the kernel RNG, schedule events, or mutate any
// simulated state — otherwise a traced run would diverge from an untraced
// one and counterfactual A/B cells would stop being bit-comparable. With
// nothing observing (TraceOff) every emit is a nil check: zero allocation,
// zero behavioral difference.

// TraceLevel says whether a run has a decision recorder attached. The core
// emits every event whenever a tracer is attached, and a recorder keeps
// every event it is handed.
type TraceLevel uint8

const (
	// TraceOff attaches no tracer: the zero-overhead default.
	TraceOff TraceLevel = iota
	// TraceFull attaches a recorder that keeps every decision event.
	TraceFull
)

// DecisionStage identifies one decision point of Algorithm 1.
type DecisionStage uint8

const (
	// --- SIM applet (decision module) ---

	// StageDiagReceived: a sealed diagnosis was decoded and entered the
	// decision module.
	StageDiagReceived DecisionStage = iota + 1
	// StageTrialConflict: a diagnosis was dropped because an online-
	// learning trial owns the current failure (§4.4.2 conflict rule).
	StageTrialConflict
	// StageCongestionWait: a congestion notice parked recovery for Wait.
	StageCongestionWait
	// StageSuggested: an infrastructure-suggested action was accepted
	// (Action is the suggestion folded to the effective mode).
	StageSuggested
	// StageCPlaneArmed: the CPlaneWait transient window was armed before a
	// hardware/control-plane reset (Wait is the window).
	StageCPlaneArmed
	// StageCPlaneCancelled: a recovery signal inside the window cancelled
	// the pending reset.
	StageCPlaneCancelled
	// StageUserNotice: an unrecoverable cause raised a user notification
	// instead of a reset.
	StageUserNotice
	// StageDeliveryReport: an app/OS delivery-failure report was accepted
	// for handling.
	StageDeliveryReport
	// StageConflictSuppressed: a delivery report was suppressed because a
	// control/data-plane cause inside ConflictWindow already explains it.
	StageConflictSuppressed
	// StageCongestionSkip: handling was skipped inside a congestion window.
	StageCongestionSkip
	// StageTrialStart: an unknown cause opened a sequential trial.
	StageTrialStart
	// StageTrialStep: the trial advanced to its next action (Action), with
	// the TrialWindow timer armed (Wait).
	StageTrialStep
	// StageTrialResolved: a recovery signal closed the trial; Action is the
	// recorded successful action.
	StageTrialResolved
	// StageTrialExhausted: the trial ran out of actions and gave up.
	StageTrialExhausted
	// StageExecute: a reset action executed. Seq is the decision index,
	// Proposed the action Algorithm 1 chose, Action what actually ran
	// (they differ only under a counterfactual override).
	StageExecute
	// StageRateLimited: an execution was suppressed by RateLimitGap. The
	// decision still consumes a Seq so counterfactual pinning is stable.
	StageRateLimited
	// StageOverridden: a counterfactual override replaced the proposed
	// action at decision Seq.
	StageOverridden
	// StageRecovered: the recovery signal (successful AKA or carrier-app
	// validation) reached the applet.
	StageRecovered

	// --- infrastructure plugin (Figure 8) ---

	// StageInfraCongestion: the plugin answered a reject with a congestion
	// wait notice.
	StageInfraCongestion
	// StageInfraConfig: a standardized config-related cause was answered
	// with a refreshed configuration item.
	StageInfraConfig
	// StageInfraCause: a standardized cause was forwarded as-is.
	StageInfraCause
	// StageInfraCustomSuggest: an operator-customized cause carried its
	// configured suggested action.
	StageInfraCustomSuggest
	// StageInfraLearnerSuggest: the crowd-sourced learner's logistic gate
	// passed and the argmax action was suggested (Evidence at gate time).
	StageInfraLearnerSuggest
	// StageInfraLearnerNull: the learner had no suggestion (no evidence or
	// the gate withheld it) and the cause went out as DiagUnknown.
	StageInfraLearnerNull
	// StageInfraTimeoutAssist: the passive no-response branch suggested a
	// hardware reset.
	StageInfraTimeoutAssist
	// StageInfraCrowdsource: an uploaded SIM record blob merged into the
	// crowd-sourced model (Evidence is the merged observation count).
	StageInfraCrowdsource
)

var stageNames = map[DecisionStage]string{
	StageDiagReceived:        "diag-received",
	StageTrialConflict:       "trial-conflict",
	StageCongestionWait:      "congestion-wait",
	StageSuggested:           "suggested",
	StageCPlaneArmed:         "cplane-armed",
	StageCPlaneCancelled:     "cplane-cancelled",
	StageUserNotice:          "user-notice",
	StageDeliveryReport:      "delivery-report",
	StageConflictSuppressed:  "conflict-suppressed",
	StageCongestionSkip:      "congestion-skip",
	StageTrialStart:          "trial-start",
	StageTrialStep:           "trial-step",
	StageTrialResolved:       "trial-resolved",
	StageTrialExhausted:      "trial-exhausted",
	StageExecute:             "execute",
	StageRateLimited:         "rate-limited",
	StageOverridden:          "overridden",
	StageRecovered:           "recovered",
	StageInfraCongestion:     "infra-congestion",
	StageInfraConfig:         "infra-config",
	StageInfraCause:          "infra-cause",
	StageInfraCustomSuggest:  "infra-custom-suggest",
	StageInfraLearnerSuggest: "infra-learner-suggest",
	StageInfraLearnerNull:    "infra-learner-null",
	StageInfraTimeoutAssist:  "infra-timeout-assist",
	StageInfraCrowdsource:    "infra-crowdsource",
}

func (s DecisionStage) String() string {
	if n, ok := stageNames[s]; ok {
		return n
	}
	return fmt.Sprintf("DecisionStage(%d)", uint8(s))
}

// DecisionEvent is one structured record of a decision point. Fields not
// meaningful for a stage are zero; Seq is -1 except on execution-path
// stages (Execute/RateLimited/Overridden), where it is the stable
// decision index counterfactual overrides pin. Every field is comparable,
// so two traces are equal exactly when slices.Equal says so.
type DecisionEvent struct {
	// At is the kernel virtual time of the decision.
	At time.Duration
	// Stage identifies the decision point.
	Stage DecisionStage
	// IMSI identifies the deciding device (empty for anonymous events,
	// e.g. record-blob crowdsourcing).
	IMSI string
	// Plane/Code carry the failure cause under decision, Kind the
	// diagnosis assistance type (applet-side stages).
	Plane cause.Plane
	Code  cause.Code
	Kind  DiagKind
	// Proposed is the action Algorithm 1 chose before any counterfactual
	// override; Action is the action the stage committed to.
	Proposed ActionID
	Action   ActionID
	// Seq is the execution decision index (-1 when not applicable).
	Seq int32
	// Wait is a stage-armed timer or wait window.
	Wait time.Duration
	// Evidence is the learner's observation count at suggestion time, or
	// the merged record count for crowdsource events.
	Evidence int32
}

// DecisionTracer is what the applet and the plugin look for on their
// kernel's observer. Implementations must be pure observers (no RNG draws,
// no scheduling, no simulated-state mutation); they run synchronously on the
// cell's single-threaded kernel.
type DecisionTracer interface {
	Decision(ev DecisionEvent)
}

// ActionOverride is the counterfactual hook: called at every execution
// decision with its stable sequence index and the action Algorithm 1
// proposed. Returning 0 keeps the proposal; anything else replaces it
// (folded to the device's effective mode before running). Overrides pin
// exactly one decision in practice, leaving the rest of the run to unfold
// under the alternative.
type ActionOverride func(seq int32, proposed ActionID) ActionID
