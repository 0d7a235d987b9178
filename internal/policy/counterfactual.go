package policy

import (
	"fmt"
	"slices"

	"github.com/seed5g/seed/internal/core"
	"github.com/seed5g/seed/internal/runner"
	"github.com/seed5g/seed/internal/workload"
)

// Counterfactual replay answers "what if the applet had chosen a
// different reset tier at decision k?" for a traced cell. The mechanism
// rests on two contracts the core enforces:
//
//   - every execution decision consumes one stable sequence index (rate-
//     limited executions included), so "decision k" means the same thing
//     in the baseline and in every alternative;
//   - cell seeds derive via splitmix from the cell's compiled seed, and
//     trace hooks never perturb the RNG streams, so an override pinned to
//     the baseline's own proposal replays the baseline event for event
//     (PinIdentity below asserts exactly that).
//
// Each alternative pins exactly one decision to one tier and lets the
// rest of the run unfold — downstream decisions may shift, which is the
// point: the matrix prices the full consequence, not the single swap.

// Pin returns an override fixing decision seq to action and leaving
// every other decision to Algorithm 1.
func Pin(seq int32, action core.ActionID) core.ActionOverride {
	return func(s int32, proposed core.ActionID) core.ActionID {
		if s == seq {
			return action
		}
		return 0
	}
}

// Alternative is one counterfactual arm: decision Seq pinned to Action.
type Alternative struct {
	Action     string  `json:"action"`
	Recovered  bool    `json:"recovered"`
	DisruptS   float64 `json:"disruption_s"`
	Composite  float64 `json:"composite_s"`
	DeltaS     float64 `json:"delta_s"` // composite − baseline composite
	Executions int     `json:"executions"`
}

// PinRow is the alternative set for one pinned decision.
type PinRow struct {
	Seq          int32         `json:"seq"`
	Proposed     string        `json:"proposed"`
	Alternatives []Alternative `json:"alternatives"`
}

// Matrix is the full counterfactual table for one cell.
type Matrix struct {
	CellIndex int     `json:"cell_index"`
	Scenario  string  `json:"scenario"`
	Mode      string  `json:"mode"`
	Seed      int64   `json:"seed"`
	Decisions int     `json:"decisions"`
	Baseline  float64 `json:"baseline_composite_s"`
	Recovered bool    `json:"baseline_recovered"`
	// BaselineDigest fingerprints the baseline trace; PinIdentity reports
	// whether re-running with decision 0 pinned to its own baseline
	// proposal reproduced the baseline's events exactly (the A/B
	// bit-comparability guarantee — if this is ever false, every delta in
	// the matrix is noise).
	BaselineDigest string   `json:"baseline_digest"`
	PinIdentity    bool     `json:"pin_identity"`
	Rows           []PinRow `json:"rows"`
}

// Counterfactual builds the matrix for one cell under pol: the baseline
// traced run, then every decision index up to maxPins pinned to each of
// the six tiers. Alternative runs fan out across p; results are
// index-slotted, so the matrix is deterministic at any parallelism.
func Counterfactual(p *runner.Pool, sp *workload.Spec, c workload.Cell, pol Policy, maxPins int) Matrix {
	base, events := TraceCell(sp, c, pol, nil)
	m := Matrix{
		CellIndex: c.Index, Scenario: c.Scenario, Mode: c.Mode, Seed: c.Seed,
		Decisions: base.Decisions, Baseline: Composite(base), Recovered: base.Recovered,
		BaselineDigest: Digest(events),
	}
	proposals := baselineProposals(events)
	pins := base.Decisions
	if maxPins > 0 && pins > maxPins {
		pins = maxPins
	}
	if pins == 0 {
		m.PinIdentity = true // nothing to pin; vacuously identical
		return m
	}
	// Pin identity: decision 0 pinned to its own proposal must replay the
	// baseline event for event.
	_, idEvents := TraceCell(sp, c, pol, Pin(0, proposals[0]))
	m.PinIdentity = slices.Equal(idEvents, events)

	actions := AllActions()
	type arm struct{ seq, tier int }
	arms := make([]arm, 0, pins*len(actions))
	for s := 0; s < pins; s++ {
		for t := range actions {
			arms = append(arms, arm{s, t})
		}
	}
	alts := runner.Map(p, len(arms), func(i int) Alternative {
		a := arms[i]
		o, _ := TraceCell(sp, c, pol, Pin(int32(a.seq), actions[a.tier]))
		execs := 0
		for _, n := range o.Actions {
			execs += n
		}
		comp := Composite(o)
		return Alternative{
			Action: actions[a.tier].String(), Recovered: o.Recovered,
			DisruptS: o.Disruption.Seconds(), Composite: comp,
			DeltaS: comp - m.Baseline, Executions: execs,
		}
	})
	for s := 0; s < pins; s++ {
		row := PinRow{Seq: int32(s), Proposed: proposals[s].String()}
		row.Alternatives = alts[s*len(actions) : (s+1)*len(actions)]
		m.Rows = append(m.Rows, row)
	}
	return m
}

// baselineProposals extracts the proposed action at each execution
// decision index from a full trace.
func baselineProposals(events []core.DecisionEvent) map[int]core.ActionID {
	out := make(map[int]core.ActionID)
	for _, ev := range events {
		if ev.Stage == core.StageExecute || ev.Stage == core.StageRateLimited {
			out[int(ev.Seq)] = ev.Proposed
		}
	}
	return out
}

// FirstCellByScenario returns the first eligible corpus cell of the given
// scenario class, or an error if the corpus has none — the matrix anchor
// cells for the report.
func FirstCellByScenario(cells []workload.Cell, scenario string) (workload.Cell, error) {
	for _, c := range cells {
		if c.Scenario == scenario && Eligible(c) {
			return c, nil
		}
	}
	return workload.Cell{}, fmt.Errorf("policy: corpus has no eligible %q cell", scenario)
}
