package workload

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"github.com/seed5g/seed/internal/cause"
	"github.com/seed5g/seed/internal/sched"
)

// RNG stream identifiers for per-(population, device) seed derivation.
// Separate streams per concern keep a change in one sampled quantity (say
// an extra mobility draw) from rippling into unrelated ones.
const (
	streamArrival uint64 = iota + 1
	streamMix
	streamMobility
	streamRun
)

// Cell is one compiled scenario: a single failure event on a single
// device, self-contained and independent of every other cell (the
// internal/runner execution contract). Cells are ordered by arrival time.
type Cell struct {
	Index      int    `json:"index"`
	Population string `json:"population"`
	// DeviceIdx is the device's index within its population.
	DeviceIdx int `json:"device"`
	// Mode is the device's failure-handling stack (legacy|seed-u|seed-r).
	Mode string `json:"mode"`
	// At is the event's arrival offset in the generated window.
	At time.Duration `json:"at_ns"`
	// Plane/Code/Scenario/Heal describe the failure (dataset vocabulary).
	Plane    string        `json:"plane,omitempty"`
	Code     uint8         `json:"code,omitempty"`
	Scenario string        `json:"scenario"`
	Heal     time.Duration `json:"heal_ns,omitempty"`
	// RFJitter is the population's radio-degradation profile.
	RFJitter time.Duration `json:"rf_jitter_ns,omitempty"`
	// LossWindows/PartitionWindows are the population's scheduled RF
	// impairment windows (offsets relative to cell start).
	LossWindows      []LossWindow      `json:"loss_windows,omitempty"`
	PartitionWindows []PartitionWindow `json:"partition_windows,omitempty"`
	// Hops/LossyHop describe the mobility walk (mobility scenarios only);
	// LossyHop is -1 for non-mobility cells.
	Hops     []Hop `json:"hops,omitempty"`
	LossyHop int   `json:"lossy_hop"`
	// Seed is the cell's derived execution seed.
	Seed int64 `json:"seed"`
}

// Compile expands a validated spec into its flat cell list for the given
// root seed. Compilation is sequential and deterministic: every random
// quantity comes from a per-(population, device, stream) RNG derived with
// sched.DeriveSeedN, so the result is bit-identical for a given
// (spec, seed) regardless of host, parallelism, or call count.
func Compile(sp *Spec, rootSeed int64) ([]Cell, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	horizon := time.Duration(sp.HorizonMin * float64(time.Minute))
	var cells []Cell
	for pi := range sp.Populations {
		p := &sp.Populations[pi]
		total := MixTotal(p.Mix)
		for d := 0; d < p.Count; d++ {
			arr := newArrivalSampler(&p.Arrival, streamRNG(rootSeed, streamArrival, pi, d))
			mix := streamRNG(rootSeed, streamMix, pi, d)
			mob := streamRNG(rootSeed, streamMobility, pi, d)
			for ev := 0; ; ev++ {
				at := arr.next()
				if at >= horizon {
					break
				}
				if len(cells) > MaxCells {
					return nil, fmt.Errorf("workload: compiled corpus exceeds the %d-cell bound", MaxCells)
				}
				m := PickMix(mix, p.Mix, total)
				c := Cell{
					Population: p.Name,
					DeviceIdx:  d,
					Mode:       p.Mode,
					At:         at,
					Scenario:   m.Scenario,
					LossyHop:   -1,
					Seed:       sched.DeriveSeedN(rootSeed, streamRun, uint64(pi), uint64(d), uint64(ev)),
				}
				if p.RF != nil {
					c.RFJitter = time.Duration(p.RF.JitterMS * float64(time.Millisecond))
					c.LossWindows = p.RF.LossWindows
					c.PartitionWindows = p.RF.PartitionWindows
				}
				if MobilityScenario(m.Scenario) {
					// Mobility failures are cause-9 registration rejects by
					// mechanism (the lost context transfer).
					c.Plane = "control"
					c.Code = uint8(cause.MMUEIdentityCannotBeDerived)
					c.Hops, c.LossyHop = SampleWalk(mob, sp.Cells.N, p.Mobility, m.Scenario)
				} else {
					c.Plane = m.Plane
					c.Code = m.Code
					c.Heal = m.SampleHeal(mix)
				}
				cells = append(cells, c)
			}
		}
	}
	// Arrival order; the stable sort preserves (population, device, event)
	// order among simultaneous arrivals.
	sort.SliceStable(cells, func(i, j int) bool { return cells[i].At < cells[j].At })
	for i := range cells {
		cells[i].Index = i
	}
	return cells, nil
}

func streamRNG(root int64, stream uint64, pi, d int) *rand.Rand {
	return sched.NewRand(sched.DeriveSeedN(root, stream, uint64(pi), uint64(d)))
}

// MixTotal is the sum of a mix's weights, PickMix's normalizer.
func MixTotal(mix []CauseMix) (total float64) {
	for _, m := range mix {
		total += m.Weight
	}
	return total
}

// PickMix draws one entry of mix with probability proportional to its
// weight (one rng.Float64).
func PickMix(rng *rand.Rand, mix []CauseMix, total float64) CauseMix {
	pick := rng.Float64() * total
	for _, m := range mix {
		if pick < m.Weight {
			return m
		}
		pick -= m.Weight
	}
	return mix[len(mix)-1]
}

// Outcome is the measured result of executing one cell end-to-end on the
// testbed (the root package exports it as ReplayResult).
type Outcome struct {
	// Recovered reports whether data connectivity came back within the
	// replay window.
	Recovered bool `json:"recovered"`
	// Disruption is the outage duration (onset → recovery); meaningless
	// when Recovered is false.
	Disruption time.Duration `json:"disruption_ns"`
	// UserNotified reports whether SEED raised a user-action notification
	// (the correct handling for unrecoverable cases).
	UserNotified bool `json:"user_notified,omitempty"`
	// UserActionRequired marks cases no automatic reset can fix. It is
	// the cell's class restated, not a measurement, so a corpus omits it.
	UserActionRequired bool `json:"-"`
	// Handovers/ContextLoss are the cell testbed's merged mobility
	// counters (mobility scenarios only).
	Handovers   int `json:"handovers,omitempty"`
	ContextLoss int `json:"context_loss,omitempty"`
	// Actions counts the reset actions the cell's device executed, keyed
	// by action name (SEED modes only) — the per-cause breakdown and
	// policy recovery-cost input.
	Actions map[string]int `json:"actions,omitempty"`
	// Reboots is the modem reboot count (user-visible impact).
	Reboots int `json:"reboots,omitempty"`
	// Decisions is the applet's execution-decision count (the
	// counterfactual pin space).
	Decisions int `json:"decisions,omitempty"`
}

// Run is one measured cell: the outcome tagged with the cell index it
// belongs to (corpus execution may sample rather than replay every cell).
type Run struct {
	Index int `json:"index"`
	Outcome
}

// Corpus is the canonical serialized form of a generated workload: the
// spec, the compiled cells, and (optionally) the measured runs and
// aggregate stats. Marshaling uses only slices ordered at build time, so
// the bytes are deterministic.
type Corpus struct {
	Spec  *Spec  `json:"spec"`
	Seed  int64  `json:"seed"`
	Cells []Cell `json:"cells"`
	Runs  []Run  `json:"runs,omitempty"`
	Stats *Stats `json:"stats,omitempty"`
}

// MarshalCorpus encodes the corpus canonically (indented JSON, trailing
// newline). Byte-identical output ⇔ identical corpus.
func MarshalCorpus(c *Corpus) []byte {
	b, err := json.MarshalIndent(c, "", " ")
	if err != nil {
		panic(fmt.Sprintf("workload: marshal corpus: %v", err))
	}
	return append(b, '\n')
}

// CauseCount is one row of the corpus cause-mix marginal.
type CauseCount struct {
	Cause string  `json:"cause"`
	Count int     `json:"count"`
	Share float64 `json:"share"`
}

// ScenarioCount is one row of the corpus scenario marginal.
type ScenarioCount struct {
	Scenario string `json:"scenario"`
	Count    int    `json:"count"`
}

// Stats are the corpus marginals plus merged execution counters.
type Stats struct {
	Cells        int             `json:"cells"`
	ControlShare float64         `json:"control_share"`
	DataShare    float64         `json:"data_share"`
	Causes       []CauseCount    `json:"causes"`
	Scenarios    []ScenarioCount `json:"scenarios"`
	// Execution aggregates (present when outcomes were measured).
	Measured    int `json:"measured,omitempty"`
	Recovered   int `json:"recovered,omitempty"`
	Handovers   int `json:"handovers,omitempty"`
	ContextLoss int `json:"context_loss,omitempty"`
}

// StatsOf computes the corpus marginals; runs may be nil (compile-only
// corpus) or shorter than cells (sampled execution).
func StatsOf(cells []Cell, runs []Run) *Stats {
	st := &Stats{Cells: len(cells)}
	causes := map[string]int{}
	scenarios := map[string]int{}
	control := 0
	for _, c := range cells {
		scenarios[c.Scenario]++
		if c.Plane == "control" {
			control++
		}
		causes[cellCauseLabel(c)]++
	}
	if len(cells) > 0 {
		st.ControlShare = float64(control) / float64(len(cells))
		st.DataShare = 1 - st.ControlShare
	}
	for label, n := range causes {
		st.Causes = append(st.Causes, CauseCount{Cause: label, Count: n, Share: float64(n) / float64(len(cells))})
	}
	sort.Slice(st.Causes, func(i, j int) bool {
		if st.Causes[i].Count != st.Causes[j].Count {
			return st.Causes[i].Count > st.Causes[j].Count
		}
		return st.Causes[i].Cause < st.Causes[j].Cause
	})
	for s, n := range scenarios {
		st.Scenarios = append(st.Scenarios, ScenarioCount{Scenario: s, Count: n})
	}
	sort.Slice(st.Scenarios, func(i, j int) bool { return st.Scenarios[i].Scenario < st.Scenarios[j].Scenario })
	for _, o := range runs {
		st.Measured++
		if o.Recovered {
			st.Recovered++
		}
		st.Handovers += o.Handovers
		st.ContextLoss += o.ContextLoss
	}
	return st
}

// cellCauseLabel renders a cell's cause in the "plane/code" form used by
// the marginals and calibration targets.
func cellCauseLabel(c Cell) string {
	if c.Scenario == ScenSilent {
		return "control/timeout"
	}
	return fmt.Sprintf("%s/%d", c.Plane, c.Code)
}

// UploadSchedule returns deterministic upload offsets for n fleet devices
// paced by the spec's arrival processes: the first n compiled arrival
// times in corpus order, wrapping around the horizon (with a full-horizon
// shift per lap) when the corpus is smaller than n. cmd/seedload uses
// this to pace its uploads.
func UploadSchedule(sp *Spec, rootSeed int64, n int) ([]time.Duration, error) {
	cells, err := Compile(sp, rootSeed)
	if err != nil {
		return nil, err
	}
	if len(cells) == 0 {
		return nil, fmt.Errorf("workload: spec %q compiled to an empty corpus", sp.Name)
	}
	horizon := time.Duration(sp.HorizonMin * float64(time.Minute))
	out := make([]time.Duration, n)
	for i := range out {
		lap := i / len(cells)
		out[i] = cells[i%len(cells)].At + time.Duration(lap)*horizon
	}
	return out, nil
}
