// Package policy is the decision-trace subsystem and counterfactual
// recovery-policy optimizer over SEED's Algorithm 1.
//
// It builds on three primitives the core and root packages expose:
//
//   - core.DecisionTracer: every Algorithm 1 decision point emits a
//     structured DecisionEvent when a tracer is attached (and costs one
//     nil check when not — TraceOff runs are byte-identical to untraced
//     ones by construction).
//   - core.ActionOverride: the counterfactual hook. Every execution
//     decision consumes a stable sequence index; pinning one index to an
//     alternative tier replays the same cell under "what if the applet
//     had chosen X here instead", with every other decision free to
//     unfold under the alternative.
//   - seed.RunWorkloadCell + seed.Instrument: one code path measures a
//     cell for the workload bench and for policy scoring, so a policy's
//     score is directly comparable to the calibrated corpus outcomes.
//
// A Policy is the knob vector Algorithm 1 actually exposes: the decision
// timers and the unknown-cause trial order. Search
// (grid + evolutionary refinement) optimizes a composite of disruption
// time, recovery-action cost, and user-visible impact over the calibrated
// workload corpus.
package policy

import (
	"fmt"
	"time"

	"github.com/seed5g/seed/internal/core"
)

// Policy is one candidate configuration of Algorithm 1's decision knobs.
// The zero value is invalid; start from Paper().
type Policy struct {
	// CPlaneWait is the transient window armed before hardware/
	// control-plane resets (§4.4.2; paper: 2s).
	CPlaneWait time.Duration `json:"cplane_wait_ns"`
	// ConflictWindow suppresses delivery-report handling this close to a
	// control/data-plane cause (paper: 5s).
	ConflictWindow time.Duration `json:"conflict_window_ns"`
	// RateLimitGap is the minimum spacing between identical actions
	// (paper: 5s).
	RateLimitGap time.Duration `json:"rate_limit_gap_ns"`
	// TrialWindow is the per-action wait of an unknown-cause trial
	// (paper: 10s).
	TrialWindow time.Duration `json:"trial_window_ns"`
	// TrialOrder is the unknown-cause trial sequence (paper:
	// core.LearningOrder, cheapest tier first).
	TrialOrder []core.ActionID `json:"trial_order"`
}

// Paper returns the policy the paper evaluates: DefaultAppletConfig
// timers and LearningOrder trials.
func Paper() Policy {
	def := core.DefaultAppletConfig()
	return Policy{
		CPlaneWait:     def.CPlaneWait,
		ConflictWindow: def.ConflictWindow,
		RateLimitGap:   def.RateLimitGap,
		TrialWindow:    def.TrialWindow,
		TrialOrder:     append([]core.ActionID(nil), core.LearningOrder...),
	}
}

// Apply writes the policy's applet-side knobs into cfg. It deliberately
// leaves the mode/ablation switches alone — those model deployment, not
// decision policy.
func (p Policy) Apply(cfg *core.AppletConfig) {
	cfg.CPlaneWait = p.CPlaneWait
	cfg.ConflictWindow = p.ConflictWindow
	cfg.RateLimitGap = p.RateLimitGap
	cfg.TrialWindow = p.TrialWindow
	cfg.TrialOrder = p.TrialOrder
}

// Equal reports whether two policies are the same knob vector.
func (p Policy) Equal(q Policy) bool {
	if p.CPlaneWait != q.CPlaneWait || p.ConflictWindow != q.ConflictWindow ||
		p.RateLimitGap != q.RateLimitGap || p.TrialWindow != q.TrialWindow ||
		len(p.TrialOrder) != len(q.TrialOrder) {
		return false
	}
	for i := range p.TrialOrder {
		if p.TrialOrder[i] != q.TrialOrder[i] {
			return false
		}
	}
	return true
}

// String renders the policy compactly for logs and reports.
func (p Policy) String() string {
	return fmt.Sprintf("cpw=%v cw=%v rl=%v tw=%v order=%s",
		p.CPlaneWait, p.ConflictWindow, p.RateLimitGap, p.TrialWindow,
		OrderNames(p.TrialOrder))
}

// OrderNames renders a trial order as its tier names ("B3>A3>...").
func OrderNames(order []core.ActionID) string {
	s := ""
	for i, a := range order {
		if i > 0 {
			s += ">"
		}
		// "B3/dplane-reset" → "B3"
		name := a.String()
		if len(name) >= 2 {
			name = name[:2]
		}
		s += name
	}
	return s
}

// AllActions lists the six reset tiers in ascending ID order — the
// counterfactual alternative set.
func AllActions() []core.ActionID {
	return []core.ActionID{
		core.ActionA1, core.ActionA2, core.ActionA3,
		core.ActionB1, core.ActionB2, core.ActionB3,
	}
}
