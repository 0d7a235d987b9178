package policy

import (
	seed "github.com/seed5g/seed"
	"github.com/seed5g/seed/internal/core"
	"github.com/seed5g/seed/internal/metrics"
	"github.com/seed5g/seed/internal/runner"
	"github.com/seed5g/seed/internal/workload"
)

// Scoring: a policy's quality on one cell is a seconds-equivalent
// composite of three terms the paper's evaluation treats separately —
// how long the user was disrupted (§7.2 Figure 2/Table 4), what the
// recovery itself cost (the reset-tier ladder of Figure 5), and what the
// user was made to see (notices, modem reboots). The pricing is the
// shared cost model of internal/metrics — the same one the experiment
// breakdowns report — so a policy score and a seedbench causes row are
// directly comparable. The optimizer minimizes the corpus mean of the
// composite.

// Score aggregates a policy's quality over an evaluated cell set. All
// *S fields are seconds-equivalents; Composite is the optimization
// objective (lower is better).
type Score struct {
	Cells          int     `json:"cells"`
	Recovered      int     `json:"recovered"`
	MeanDisruptS   float64 `json:"mean_disruption_s"`
	MeanActionS    float64 `json:"mean_action_cost_s"`
	MeanImpactS    float64 `json:"mean_impact_s"`
	Composite      float64 `json:"composite_s"`
	TotalActions   int     `json:"total_actions"`
	TotalReboots   int     `json:"total_reboots"`
	TotalNotices   int     `json:"total_notices"`
	TotalDecisions int     `json:"total_decisions"`
}

// costOf prices one outcome under the shared model.
func costOf(o workload.Outcome) metrics.Cost {
	return metrics.PriceCell(metrics.CostInput{
		Recovered: o.Recovered, Disruption: o.Disruption,
		Actions: o.Actions, Reboots: o.Reboots, UserNotified: o.UserNotified,
	})
}

// Composite prices one outcome as a single seconds-equivalent (the
// per-cell form of Score.Composite).
func Composite(o workload.Outcome) float64 { return costOf(o).CompositeS }

// Eligible reports whether a cell participates in policy scoring: SEED
// populations only (a policy cannot change legacy handling), excluding
// user-action cells (unrecoverable by construction — every policy pays
// the same notice, so they only flatten the objective).
func Eligible(c workload.Cell) bool {
	return c.Mode != "legacy" && c.Scenario != workload.ScenUserAction
}

// EligibleCells filters and (optionally) truncates the corpus to its
// first max eligible cells in corpus order — the deterministic
// evaluation subsample.
func EligibleCells(cells []workload.Cell, max int) []workload.Cell {
	var out []workload.Cell
	for _, c := range cells {
		if !Eligible(c) {
			continue
		}
		out = append(out, c)
		if max > 0 && len(out) == max {
			break
		}
	}
	return out
}

// cellEval is one cell's contribution to a Score.
type cellEval struct {
	outcome workload.Outcome
	counts  map[string]int
}

// Evaluate scores pol over the given (already filtered) cells, fanning
// across p. At TraceFull it also merges per-stage trace counts from a
// per-cell Recorder; at TraceOff no tracer is attached and the run is
// byte-identical to an untraced one. Results are bit-identical
// at any worker count: each cell builds its own Instrument and recorder,
// and the per-cell results are folded in cell order — the cost sums are
// floating-point, so folding per-worker shards in completion order would
// round differently from run to run.
func Evaluate(p *runner.Pool, sp *workload.Spec, cells []workload.Cell, pol Policy, level core.TraceLevel) (Score, map[string]int) {
	results := runner.Map(p, len(cells), func(i int) cellEval {
		c := cells[i]
		var rec *Recorder
		inst := &seed.Instrument{Applet: pol.Apply}
		if level != core.TraceOff {
			rec = NewRecorder()
			inst.Tracer = rec
		}
		mode, _ := seed.ParseMode(c.Mode)
		r := cellEval{outcome: seed.RunWorkloadCell(sp, c, mode, inst)}
		if rec != nil {
			r.counts = rec.Counts()
		}
		return r
	})
	var s Score
	var sums metrics.Cost
	counts := make(map[string]int)
	for _, r := range results {
		o := r.outcome
		cost := costOf(o)
		s.Cells++
		if o.Recovered {
			s.Recovered++
		}
		sums.DisruptS += cost.DisruptS
		sums.ActionS += cost.ActionS
		sums.ImpactS += cost.ImpactS
		for _, n := range o.Actions {
			s.TotalActions += n
		}
		s.TotalReboots += o.Reboots
		if o.UserNotified {
			s.TotalNotices++
		}
		s.TotalDecisions += o.Decisions
		MergeCounts(counts, r.counts)
	}
	if s.Cells > 0 {
		n := float64(s.Cells)
		s.MeanDisruptS = sums.DisruptS / n
		s.MeanActionS = sums.ActionS / n
		s.MeanImpactS = sums.ImpactS / n
	}
	s.Composite = s.MeanDisruptS + s.MeanActionS + s.MeanImpactS
	return s, counts
}

// TraceCell runs one cell under pol with a recorder attached and returns
// the outcome plus the recorded events. The override, when non-nil, is
// the counterfactual hook.
func TraceCell(sp *workload.Spec, c workload.Cell, pol Policy, override core.ActionOverride) (workload.Outcome, []core.DecisionEvent) {
	rec := NewRecorder()
	inst := &seed.Instrument{Tracer: rec, Override: override, Applet: pol.Apply}
	mode, _ := seed.ParseMode(c.Mode)
	o := seed.RunWorkloadCell(sp, c, mode, inst)
	return o, rec.Events()
}
