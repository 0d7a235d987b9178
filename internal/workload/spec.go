// Package workload turns a declarative JSON spec — device population
// classes, interarrival processes (Poisson/Gamma/Weibull with piecewise
// diurnal rate curves and signaling-storm bursts), failure-cause mixes,
// RF-degradation profiles, and random-waypoint mobility over a multi-gNB
// cell graph — into a flat, seed-derived list of scenario cells suitable
// for internal/runner fan-out.
//
// Compilation is sequential and samples every random quantity from
// per-(population, device, concern) RNG streams derived with
// sched.DeriveSeedN, so a given (spec, seed) pair produces a bit-identical
// cell list no matter how the cells are later executed or at what
// parallelism. The scoring half of the package (calibrate.go) measures a
// compiled corpus against the paper's published marginals — Table 1 cause
// mix, Figure 2 disruption CDF — with explicit error metrics (MAPE,
// Kolmogorov–Smirnov distance, Pearson correlation), each of which the
// tests bound for the built-in DefaultSpec.
package workload

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"github.com/seed5g/seed/internal/cause"
)

// Scenario strings accepted in a CauseMix entry. The first six mirror the
// dataset's FailureScenario classes; the last two are mobility-induced
// classes SEED's corpus never saw (they need a multi-cell graph).
const (
	ScenTransient       = "transient"
	ScenDesync          = "desync"
	ScenStaleDevice     = "stale-device"
	ScenStaleEverywhere = "stale-everywhere"
	ScenUserAction      = "user-action"
	ScenSilent          = "silent"
	// ScenHandoverDesync is a handover whose context transfer is lost while
	// a racing follow-up handover lands mid-recovery-registration: the
	// re-registration triggered by the first (cause-9) loss is interrupted
	// by the second tracking-area change.
	ScenHandoverDesync = "handover-desync"
	// ScenTAURace is the slower race: the lossy handover's failure has
	// already been diagnosed (SEED's decision tree is choosing a reset
	// tier) when a tracking-area update from the next handover races the
	// in-flight diagnosis.
	ScenTAURace = "tau-race"
)

// Spec is the root of a declarative workload description.
type Spec struct {
	Name string `json:"name"`
	// HorizonMin is the generated window in virtual minutes.
	HorizonMin float64 `json:"horizon_min"`
	// Cells describes the multi-gNB graph mobility walks over. N == 0
	// means single-cell (no mobility scenarios allowed).
	Cells CellGraph `json:"cells"`
	// Populations are the device classes contributing traffic.
	Populations []Population `json:"populations"`
}

// CellGraph is the handover topology. Movement is possible between any
// two cells (the graph is complete); Edges carry per-edge context-loss
// overrides for specific directed cell pairs.
type CellGraph struct {
	N int `json:"n"`
	// DefaultContextLoss is the probability a handover's context transfer
	// fails when no edge override applies.
	DefaultContextLoss float64 `json:"default_context_loss"`
	Edges              []Edge  `json:"edges,omitempty"`
}

// Edge overrides the context-loss probability of the directed handover
// from → to.
type Edge struct {
	From        int     `json:"from"`
	To          int     `json:"to"`
	ContextLoss float64 `json:"context_loss"`
}

// Population is one device class: how many devices, which SEED stack they
// run, how failures arrive, what fails, and how they move.
type Population struct {
	Name  string `json:"name"`
	Count int    `json:"count"`
	// Mode is the failure-handling stack: legacy | seed-u | seed-r.
	Mode    string      `json:"mode"`
	Arrival ArrivalSpec `json:"arrival"`
	// Mix is the failure-cause mix; weights are normalized at compile.
	Mix []CauseMix `json:"failure_mix"`
	// Mobility enables random-waypoint walks for the mobility scenarios in
	// Mix (required when Mix contains handover-desync/tau-race entries).
	Mobility *MobilitySpec `json:"mobility,omitempty"`
	// RF applies a radio-degradation profile to every cell of this
	// population (netemu link jitter).
	RF *RFSpec `json:"rf,omitempty"`
}

// ArrivalSpec describes the per-device failure interarrival process.
type ArrivalSpec struct {
	// Process is poisson | gamma | weibull.
	Process string `json:"process"`
	// RatePerMin is the mean event rate per device per virtual minute.
	RatePerMin float64 `json:"rate_per_min"`
	// Shape is the gamma/weibull shape parameter k (unused for poisson;
	// k == 1 degenerates to poisson).
	Shape float64 `json:"shape,omitempty"`
	// Diurnal is a piecewise-constant rate-multiplier curve: each point
	// sets the multiplier from at_min until the next point (1.0 before the
	// first point). Points must be in ascending at_min order.
	Diurnal []RatePoint `json:"diurnal,omitempty"`
	// Storms are signaling-storm bursts: extra multiplicative rate factors
	// active during [at_min, at_min+dur_min).
	Storms []Storm `json:"storms,omitempty"`
}

// RatePoint is one knot of the diurnal curve.
type RatePoint struct {
	AtMin float64 `json:"at_min"`
	Mult  float64 `json:"mult"`
}

// Storm is one signaling-storm burst.
type Storm struct {
	AtMin  float64 `json:"at_min"`
	DurMin float64 `json:"dur_min"`
	Mult   float64 `json:"mult"`
}

// CauseMix is one entry of a population's failure mix.
type CauseMix struct {
	// Plane is control | data. Ignored (forced control) for the mobility
	// scenarios, whose failures are cause-9 registration rejects.
	Plane string `json:"plane,omitempty"`
	// Code is the standardized 5GMM/5GSM cause code (0 only for silent).
	Code   uint8   `json:"code,omitempty"`
	Weight float64 `json:"weight"`
	// Scenario is one of the Scen* strings.
	Scenario string `json:"scenario"`
	// HealMedianMS / HealSigma parameterize the lognormal self-heal time
	// for transient/silent/stale-everywhere entries.
	HealMedianMS float64 `json:"heal_median_ms,omitempty"`
	HealSigma    float64 `json:"heal_sigma,omitempty"`
}

// MobilitySpec parameterizes the random-waypoint walk attached to
// mobility-scenario cells.
type MobilitySpec struct {
	// Model is random-waypoint (the only model today).
	Model string `json:"model"`
	// HopsMin/HopsMax bound the walk length in handovers. Walks carrying a
	// mobility failure always get at least 2 hops (the lossy hop and the
	// racing one).
	HopsMin int `json:"hops_min"`
	HopsMax int `json:"hops_max"`
	// DwellMeanSec is the mean (exponential) dwell between handovers.
	DwellMeanSec float64 `json:"dwell_mean_sec"`
}

// RFSpec is a radio-degradation profile.
type RFSpec struct {
	// JitterMS adds uniform per-frame radio jitter (netemu link knob).
	JitterMS float64 `json:"jitter_ms"`
	// LossWindows schedules per-frame loss during [at, at+dur) of every
	// cell of the population (offsets relative to cell start). Windows
	// must be in ascending, non-overlapping order.
	LossWindows []LossWindow `json:"loss_windows,omitempty"`
	// PartitionWindows takes the radio link fully down for the window.
	// Same ordering rules as LossWindows.
	PartitionWindows []PartitionWindow `json:"partition_windows,omitempty"`
}

// LossWindow is one scheduled radio-loss window.
type LossWindow struct {
	AtSec  float64 `json:"at_sec"`
	DurSec float64 `json:"dur_sec"`
	// Loss is the per-frame drop probability while the window is open.
	Loss float64 `json:"loss"`
}

// PartitionWindow is one scheduled full radio partition.
type PartitionWindow struct {
	AtSec  float64 `json:"at_sec"`
	DurSec float64 `json:"dur_sec"`
}

// MaxCells bounds the expected compiled corpus size; Validate rejects
// specs whose expected event count exceeds it (guards fuzzed input and CI
// runs alike).
const MaxCells = 200000

// maxWindowSec bounds scheduled RF windows to the replay window (90 min).
const maxWindowSec = 5400.0

var validScenarios = map[string]bool{
	ScenTransient: true, ScenDesync: true, ScenStaleDevice: true,
	ScenStaleEverywhere: true, ScenUserAction: true, ScenSilent: true,
	ScenHandoverDesync: true, ScenTAURace: true,
}

// MobilityScenario reports whether s is one of the mobility-induced
// failure classes (needs a cell graph and a MobilitySpec).
func MobilityScenario(s string) bool {
	return s == ScenHandoverDesync || s == ScenTAURace
}

// ParseSpec decodes a JSON spec strictly: unknown fields and trailing
// garbage are errors. It does not validate semantics; call Validate.
func ParseSpec(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var sp Spec
	if err := dec.Decode(&sp); err != nil {
		return nil, fmt.Errorf("workload: parse spec: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("workload: parse spec: trailing data after JSON value")
	}
	return &sp, nil
}

// MarshalSpec encodes the spec in the canonical indented form.
func MarshalSpec(sp *Spec) []byte {
	b, err := json.MarshalIndent(sp, "", "  ")
	if err != nil {
		panic(fmt.Sprintf("workload: marshal spec: %v", err))
	}
	return append(b, '\n')
}

// Validate checks the spec's semantics and bounds. Every rejected field
// produces a distinct, stable error message (the validation table test
// pins them).
func (sp *Spec) Validate() error {
	if sp.Name == "" {
		return fmt.Errorf("workload: spec name must be non-empty")
	}
	if !(sp.HorizonMin > 0) || sp.HorizonMin > 24*60 {
		return fmt.Errorf("workload: horizon_min %v outside (0, 1440]", sp.HorizonMin)
	}
	if sp.Cells.N < 0 || sp.Cells.N > 64 {
		return fmt.Errorf("workload: cells.n %d outside [0, 64]", sp.Cells.N)
	}
	if bad(sp.Cells.DefaultContextLoss) || sp.Cells.DefaultContextLoss < 0 || sp.Cells.DefaultContextLoss > 1 {
		return fmt.Errorf("workload: cells.default_context_loss %v outside [0, 1]", sp.Cells.DefaultContextLoss)
	}
	for i, e := range sp.Cells.Edges {
		if e.From < 0 || e.From >= sp.Cells.N || e.To < 0 || e.To >= sp.Cells.N {
			return fmt.Errorf("workload: cells.edges[%d] (%d→%d) references a cell outside [0, %d)", i, e.From, e.To, sp.Cells.N)
		}
		if e.From == e.To {
			return fmt.Errorf("workload: cells.edges[%d] is a self-loop (%d→%d)", i, e.From, e.To)
		}
		if bad(e.ContextLoss) || e.ContextLoss < 0 || e.ContextLoss > 1 {
			return fmt.Errorf("workload: cells.edges[%d].context_loss %v outside [0, 1]", i, e.ContextLoss)
		}
	}
	if len(sp.Populations) == 0 {
		return fmt.Errorf("workload: spec needs at least one population")
	}
	names := map[string]bool{}
	expected := 0.0
	for pi := range sp.Populations {
		p := &sp.Populations[pi]
		if p.Name == "" {
			return fmt.Errorf("workload: populations[%d] name must be non-empty", pi)
		}
		if names[p.Name] {
			return fmt.Errorf("workload: duplicate population name %q", p.Name)
		}
		names[p.Name] = true
		if p.Count < 1 || p.Count > 100000 {
			return fmt.Errorf("workload: population %q count %d outside [1, 100000]", p.Name, p.Count)
		}
		switch p.Mode {
		case "legacy", "seed-u", "seed-r":
		default:
			return fmt.Errorf("workload: population %q mode %q not one of legacy|seed-u|seed-r", p.Name, p.Mode)
		}
		if err := p.Arrival.validate(p.Name, sp.HorizonMin); err != nil {
			return err
		}
		if err := validateMix(sp, p); err != nil {
			return err
		}
		if p.Mobility != nil {
			m := p.Mobility
			if m.Model != "random-waypoint" {
				return fmt.Errorf("workload: population %q mobility model %q unknown (want random-waypoint)", p.Name, m.Model)
			}
			if m.HopsMin < 0 || m.HopsMax < 1 || m.HopsMin > m.HopsMax || m.HopsMax > 16 {
				return fmt.Errorf("workload: population %q mobility hops [%d, %d] outside 0 ≤ min ≤ max ≤ 16 (max ≥ 1)", p.Name, m.HopsMin, m.HopsMax)
			}
			if bad(m.DwellMeanSec) || !(m.DwellMeanSec > 0) || m.DwellMeanSec > 3600 {
				return fmt.Errorf("workload: population %q mobility dwell_mean_sec %v outside (0, 3600]", p.Name, m.DwellMeanSec)
			}
			if sp.Cells.N < 2 {
				return fmt.Errorf("workload: population %q has mobility but cells.n %d < 2", p.Name, sp.Cells.N)
			}
		}
		if p.RF != nil {
			if bad(p.RF.JitterMS) || p.RF.JitterMS < 0 || p.RF.JitterMS > 1000 {
				return fmt.Errorf("workload: population %q rf.jitter_ms %v outside [0, 1000]", p.Name, p.RF.JitterMS)
			}
			prevEnd := -1.0
			for i, w := range p.RF.LossWindows {
				if bad(w.AtSec) || w.AtSec < 0 || w.AtSec > maxWindowSec {
					return fmt.Errorf("workload: population %q rf.loss_windows[%d].at_sec %v outside [0, 5400]", p.Name, i, w.AtSec)
				}
				if bad(w.DurSec) || !(w.DurSec > 0) || w.DurSec > maxWindowSec {
					return fmt.Errorf("workload: population %q rf.loss_windows[%d].dur_sec %v outside (0, 5400]", p.Name, i, w.DurSec)
				}
				if bad(w.Loss) || !(w.Loss > 0) || w.Loss > 1 {
					return fmt.Errorf("workload: population %q rf.loss_windows[%d].loss %v outside (0, 1]", p.Name, i, w.Loss)
				}
				if w.AtSec < prevEnd {
					return fmt.Errorf("workload: population %q rf.loss_windows[%d] overlaps the previous window", p.Name, i)
				}
				prevEnd = w.AtSec + w.DurSec
			}
			prevEnd = -1.0
			for i, w := range p.RF.PartitionWindows {
				if bad(w.AtSec) || w.AtSec < 0 || w.AtSec > maxWindowSec {
					return fmt.Errorf("workload: population %q rf.partition_windows[%d].at_sec %v outside [0, 5400]", p.Name, i, w.AtSec)
				}
				if bad(w.DurSec) || !(w.DurSec > 0) || w.DurSec > maxWindowSec {
					return fmt.Errorf("workload: population %q rf.partition_windows[%d].dur_sec %v outside (0, 5400]", p.Name, i, w.DurSec)
				}
				if w.AtSec < prevEnd {
					return fmt.Errorf("workload: population %q rf.partition_windows[%d] overlaps the previous window", p.Name, i)
				}
				prevEnd = w.AtSec + w.DurSec
			}
		}
		expected += float64(p.Count) * p.Arrival.peakRate() * sp.HorizonMin
	}
	if expected > MaxCells {
		return fmt.Errorf("workload: expected corpus size %.0f exceeds the %d-cell bound", expected, MaxCells)
	}
	return nil
}

func (a *ArrivalSpec) validate(pop string, horizonMin float64) error {
	switch a.Process {
	case "poisson":
		if a.Shape != 0 {
			return fmt.Errorf("workload: population %q poisson arrival must not set shape", pop)
		}
	case "gamma", "weibull":
		if bad(a.Shape) || !(a.Shape > 0) || a.Shape > 64 {
			return fmt.Errorf("workload: population %q %s arrival shape %v outside (0, 64]", pop, a.Process, a.Shape)
		}
	default:
		return fmt.Errorf("workload: population %q arrival process %q not one of poisson|gamma|weibull", pop, a.Process)
	}
	if bad(a.RatePerMin) || !(a.RatePerMin > 0) || a.RatePerMin > 1000 {
		return fmt.Errorf("workload: population %q arrival rate_per_min %v outside (0, 1000]", pop, a.RatePerMin)
	}
	last := -1.0
	for i, pt := range a.Diurnal {
		if bad(pt.AtMin) || pt.AtMin < 0 || pt.AtMin > horizonMin {
			return fmt.Errorf("workload: population %q diurnal[%d].at_min %v outside [0, horizon]", pop, i, pt.AtMin)
		}
		if pt.AtMin <= last {
			return fmt.Errorf("workload: population %q diurnal[%d] not in ascending at_min order", pop, i)
		}
		last = pt.AtMin
		if bad(pt.Mult) || !(pt.Mult > 0) || pt.Mult > 100 {
			return fmt.Errorf("workload: population %q diurnal[%d].mult %v outside (0, 100]", pop, i, pt.Mult)
		}
	}
	for i, st := range a.Storms {
		if bad(st.AtMin) || st.AtMin < 0 || st.AtMin > horizonMin {
			return fmt.Errorf("workload: population %q storms[%d].at_min %v outside [0, horizon]", pop, i, st.AtMin)
		}
		if bad(st.DurMin) || !(st.DurMin > 0) || st.DurMin > horizonMin {
			return fmt.Errorf("workload: population %q storms[%d].dur_min %v outside (0, horizon]", pop, i, st.DurMin)
		}
		if bad(st.Mult) || !(st.Mult > 0) || st.Mult > 1000 {
			return fmt.Errorf("workload: population %q storms[%d].mult %v outside (0, 1000]", pop, i, st.Mult)
		}
	}
	return nil
}

func validateMix(sp *Spec, p *Population) error {
	if len(p.Mix) == 0 {
		return fmt.Errorf("workload: population %q failure_mix must be non-empty", p.Name)
	}
	total := 0.0
	for i, m := range p.Mix {
		if bad(m.Weight) || !(m.Weight > 0) {
			return fmt.Errorf("workload: population %q failure_mix[%d].weight %v must be > 0", p.Name, i, m.Weight)
		}
		total += m.Weight
		if !validScenarios[m.Scenario] {
			return fmt.Errorf("workload: population %q failure_mix[%d].scenario %q unknown", p.Name, i, m.Scenario)
		}
		if MobilityScenario(m.Scenario) {
			if sp.Cells.N < 2 {
				return fmt.Errorf("workload: population %q failure_mix[%d] scenario %q needs cells.n ≥ 2", p.Name, i, m.Scenario)
			}
			if p.Mobility == nil {
				return fmt.Errorf("workload: population %q failure_mix[%d] scenario %q needs a mobility spec", p.Name, i, m.Scenario)
			}
			continue
		}
		switch m.Plane {
		case "control", "data":
		default:
			return fmt.Errorf("workload: population %q failure_mix[%d].plane %q not one of control|data", p.Name, i, m.Plane)
		}
		if m.Scenario == ScenSilent {
			if m.Code != 0 {
				return fmt.Errorf("workload: population %q failure_mix[%d] silent entries carry no cause code", p.Name, i)
			}
		} else if _, ok := cause.Lookup(m.Cause()); !ok {
			return fmt.Errorf("workload: population %q failure_mix[%d] cause %s/%d not a standardized cause", p.Name, i, m.Plane, m.Code)
		}
		needHeal := m.Scenario == ScenTransient || m.Scenario == ScenSilent || (m.Scenario == ScenStaleEverywhere)
		if needHeal {
			if bad(m.HealMedianMS) || !(m.HealMedianMS > 0) || m.HealMedianMS > 2*3600*1000 {
				return fmt.Errorf("workload: population %q failure_mix[%d] scenario %q needs heal_median_ms in (0, 7200000]", p.Name, i, m.Scenario)
			}
			if bad(m.HealSigma) || m.HealSigma < 0 || m.HealSigma > 4 {
				return fmt.Errorf("workload: population %q failure_mix[%d].heal_sigma %v outside [0, 4]", p.Name, i, m.HealSigma)
			}
		}
	}
	if bad(total) || total <= 0 {
		return fmt.Errorf("workload: population %q failure_mix weights sum to %v", p.Name, total)
	}
	return nil
}

// Cause is the entry's standardized cause (control → 5GMM, data → 5GSM).
func (m CauseMix) Cause() cause.Cause {
	if m.Plane == "data" {
		return cause.SM(cause.Code(m.Code))
	}
	return cause.MM(cause.Code(m.Code))
}

// peakRate is the highest instantaneous event rate (per device per
// minute), used for the corpus-size bound.
func (a *ArrivalSpec) peakRate() float64 {
	peak := 1.0
	for _, pt := range a.Diurnal {
		if pt.Mult > peak {
			peak = pt.Mult
		}
	}
	storm := 1.0
	for _, st := range a.Storms {
		if st.Mult > storm {
			storm = st.Mult
		}
	}
	return a.RatePerMin * peak * storm
}

// bad reports NaN/Inf (json accepts neither, but specs are also built in
// code).
func bad(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }
