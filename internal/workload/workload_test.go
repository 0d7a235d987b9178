package workload

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// miniSpec is a small valid spec the mutation table starts from.
func miniSpec() *Spec {
	return &Spec{
		Name:       "mini",
		HorizonMin: 30,
		Cells:      CellGraph{N: 3, DefaultContextLoss: 0.1, Edges: []Edge{{From: 0, To: 1, ContextLoss: 0.5}}},
		Populations: []Population{
			{
				Name: "handsets", Count: 4, Mode: "legacy",
				Arrival: ArrivalSpec{Process: "poisson", RatePerMin: 0.5},
				Mix: []CauseMix{
					{Plane: "control", Code: 9, Weight: 0.6, Scenario: ScenTransient, HealMedianMS: 4000, HealSigma: 0.5},
					{Weight: 0.2, Scenario: ScenHandoverDesync},
					{Weight: 0.2, Scenario: ScenTAURace},
				},
				Mobility: &MobilitySpec{Model: "random-waypoint", HopsMin: 2, HopsMax: 4, DwellMeanSec: 10},
			},
		},
	}
}

// rfWindowSpec is miniSpec with scheduled RF impairment windows — the
// fuzz seed and compile-carry fixture for the window feature.
func rfWindowSpec() *Spec {
	sp := miniSpec()
	sp.Populations[0].Mode = "seed-u"
	sp.Populations[0].RF = &RFSpec{
		JitterMS: 5,
		LossWindows: []LossWindow{
			{AtSec: 1, DurSec: 4, Loss: 0.4},
			{AtSec: 8, DurSec: 2, Loss: 1},
		},
		PartitionWindows: []PartitionWindow{{AtSec: 12, DurSec: 3}},
	}
	return sp
}

func TestCompileCarriesRFWindows(t *testing.T) {
	sp := rfWindowSpec()
	if err := sp.Validate(); err != nil {
		t.Fatalf("rf window spec invalid: %v", err)
	}
	cells, err := Compile(sp, 7)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if len(cells) == 0 {
		t.Fatal("empty corpus")
	}
	for _, c := range cells {
		if len(c.LossWindows) != 2 || len(c.PartitionWindows) != 1 {
			t.Fatalf("cell %d windows not carried: %+v", c.Index, c)
		}
		if c.LossWindows[1] != (LossWindow{AtSec: 8, DurSec: 2, Loss: 1}) {
			t.Fatalf("cell %d loss window mangled: %+v", c.Index, c.LossWindows[1])
		}
	}
}

func TestValidateAcceptsDefaultAndMini(t *testing.T) {
	if err := DefaultSpec().Validate(); err != nil {
		t.Fatalf("default spec invalid: %v", err)
	}
	if err := miniSpec().Validate(); err != nil {
		t.Fatalf("mini spec invalid: %v", err)
	}
}

// TestValidationErrors pins the validator's error message for every
// rejected field class: each mutation must fail with its own distinct,
// stable message.
func TestValidationErrors(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Spec)
		wantErr string
	}{
		{"empty name", func(s *Spec) { s.Name = "" }, "spec name must be non-empty"},
		{"zero horizon", func(s *Spec) { s.HorizonMin = 0 }, "horizon_min 0 outside (0, 1440]"},
		{"huge horizon", func(s *Spec) { s.HorizonMin = 9999 }, "horizon_min 9999 outside (0, 1440]"},
		{"negative cells", func(s *Spec) { s.Cells.N = -1 }, "cells.n -1 outside [0, 64]"},
		{"loss above one", func(s *Spec) { s.Cells.DefaultContextLoss = 1.5 }, "cells.default_context_loss 1.5 outside [0, 1]"},
		{"edge out of range", func(s *Spec) { s.Cells.Edges[0].To = 7 }, "cells.edges[0] (0→7) references a cell outside [0, 3)"},
		{"edge self-loop", func(s *Spec) { s.Cells.Edges[0].To = 0 }, "cells.edges[0] is a self-loop (0→0)"},
		{"edge loss NaN", func(s *Spec) { s.Cells.Edges[0].ContextLoss = math.NaN() }, "cells.edges[0].context_loss NaN outside [0, 1]"},
		{"no populations", func(s *Spec) { s.Populations = nil }, "spec needs at least one population"},
		{"unnamed population", func(s *Spec) { s.Populations[0].Name = "" }, "populations[0] name must be non-empty"},
		{"duplicate population", func(s *Spec) {
			s.Populations = append(s.Populations, s.Populations[0])
		}, `duplicate population name "handsets"`},
		{"zero count", func(s *Spec) { s.Populations[0].Count = 0 }, `population "handsets" count 0 outside [1, 100000]`},
		{"bad mode", func(s *Spec) { s.Populations[0].Mode = "root" }, `mode "root" not one of legacy|seed-u|seed-r`},
		{"bad process", func(s *Spec) { s.Populations[0].Arrival.Process = "pareto" }, `arrival process "pareto" not one of poisson|gamma|weibull`},
		{"poisson with shape", func(s *Spec) { s.Populations[0].Arrival.Shape = 2 }, "poisson arrival must not set shape"},
		{"gamma without shape", func(s *Spec) { s.Populations[0].Arrival.Process = "gamma" }, "gamma arrival shape 0 outside (0, 64]"},
		{"zero rate", func(s *Spec) { s.Populations[0].Arrival.RatePerMin = 0 }, "arrival rate_per_min 0 outside (0, 1000]"},
		{"diurnal out of order", func(s *Spec) {
			s.Populations[0].Arrival.Diurnal = []RatePoint{{AtMin: 10, Mult: 1}, {AtMin: 5, Mult: 2}}
		}, "diurnal[1] not in ascending at_min order"},
		{"diurnal zero mult", func(s *Spec) {
			s.Populations[0].Arrival.Diurnal = []RatePoint{{AtMin: 0, Mult: 0}}
		}, "diurnal[0].mult 0 outside (0, 100]"},
		{"storm zero duration", func(s *Spec) {
			s.Populations[0].Arrival.Storms = []Storm{{AtMin: 5, DurMin: 0, Mult: 2}}
		}, "storms[0].dur_min 0 outside (0, horizon]"},
		{"empty mix", func(s *Spec) { s.Populations[0].Mix = nil }, `failure_mix must be non-empty`},
		{"zero weight", func(s *Spec) { s.Populations[0].Mix[0].Weight = 0 }, "failure_mix[0].weight 0 must be > 0"},
		{"unknown scenario", func(s *Spec) { s.Populations[0].Mix[0].Scenario = "meteor" }, `failure_mix[0].scenario "meteor" unknown`},
		{"mobility without graph", func(s *Spec) {
			s.Cells = CellGraph{}
			s.Populations[0].Mobility = nil
		}, `failure_mix[1] scenario "handover-desync" needs cells.n ≥ 2`},
		{"mobility without spec", func(s *Spec) { s.Populations[0].Mobility = nil },
			`failure_mix[1] scenario "handover-desync" needs a mobility spec`},
		{"bad plane", func(s *Spec) { s.Populations[0].Mix[0].Plane = "ether" }, `failure_mix[0].plane "ether" not one of control|data`},
		{"silent with code", func(s *Spec) {
			s.Populations[0].Mix[0] = CauseMix{Plane: "control", Code: 9, Weight: 1, Scenario: ScenSilent}
		}, "failure_mix[0] silent entries carry no cause code"},
		{"unknown cause", func(s *Spec) { s.Populations[0].Mix[0].Code = 250 }, "failure_mix[0] cause control/250 not a standardized cause"},
		{"transient without heal", func(s *Spec) { s.Populations[0].Mix[0].HealMedianMS = 0 },
			`scenario "transient" needs heal_median_ms in (0, 7200000]`},
		{"heal sigma too big", func(s *Spec) { s.Populations[0].Mix[0].HealSigma = 9 }, "failure_mix[0].heal_sigma 9 outside [0, 4]"},
		{"bad mobility model", func(s *Spec) { s.Populations[0].Mobility.Model = "brownian" },
			`mobility model "brownian" unknown (want random-waypoint)`},
		{"too many hops", func(s *Spec) { s.Populations[0].Mobility.HopsMax = 99 }, "mobility hops [2, 99] outside"},
		{"zero dwell", func(s *Spec) { s.Populations[0].Mobility.DwellMeanSec = 0 }, "mobility dwell_mean_sec 0 outside (0, 3600]"},
		{"rf jitter out of range", func(s *Spec) { s.Populations[0].RF = &RFSpec{JitterMS: -1} }, "rf.jitter_ms -1 outside [0, 1000]"},
		{"loss window negative at", func(s *Spec) {
			s.Populations[0].RF = &RFSpec{LossWindows: []LossWindow{{AtSec: -1, DurSec: 5, Loss: 0.5}}}
		}, "rf.loss_windows[0].at_sec -1 outside [0, 5400]"},
		{"loss window zero duration", func(s *Spec) {
			s.Populations[0].RF = &RFSpec{LossWindows: []LossWindow{{AtSec: 1, DurSec: 0, Loss: 0.5}}}
		}, "rf.loss_windows[0].dur_sec 0 outside (0, 5400]"},
		{"loss window zero loss", func(s *Spec) {
			s.Populations[0].RF = &RFSpec{LossWindows: []LossWindow{{AtSec: 1, DurSec: 5, Loss: 0}}}
		}, "rf.loss_windows[0].loss 0 outside (0, 1]"},
		{"loss window NaN loss", func(s *Spec) {
			s.Populations[0].RF = &RFSpec{LossWindows: []LossWindow{{AtSec: 1, DurSec: 5, Loss: math.NaN()}}}
		}, "rf.loss_windows[0].loss NaN outside (0, 1]"},
		{"loss windows overlapping", func(s *Spec) {
			s.Populations[0].RF = &RFSpec{LossWindows: []LossWindow{
				{AtSec: 1, DurSec: 5, Loss: 0.5}, {AtSec: 3, DurSec: 5, Loss: 0.5}}}
		}, "rf.loss_windows[1] overlaps the previous window"},
		{"partition window late at", func(s *Spec) {
			s.Populations[0].RF = &RFSpec{PartitionWindows: []PartitionWindow{{AtSec: 9999, DurSec: 5}}}
		}, "rf.partition_windows[0].at_sec 9999 outside [0, 5400]"},
		{"partition window zero duration", func(s *Spec) {
			s.Populations[0].RF = &RFSpec{PartitionWindows: []PartitionWindow{{AtSec: 1, DurSec: 0}}}
		}, "rf.partition_windows[0].dur_sec 0 outside (0, 5400]"},
		{"partition windows overlapping", func(s *Spec) {
			s.Populations[0].RF = &RFSpec{PartitionWindows: []PartitionWindow{
				{AtSec: 1, DurSec: 5}, {AtSec: 2, DurSec: 1}}}
		}, "rf.partition_windows[1] overlaps the previous window"},
		{"corpus too big", func(s *Spec) {
			s.Populations[0].Count = 100000
			s.Populations[0].Arrival.RatePerMin = 1000
		}, "exceeds the 200000-cell bound"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp := miniSpec()
			tc.mutate(sp)
			err := sp.Validate()
			if err == nil {
				t.Fatalf("mutation accepted, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

func TestParseSpecStrict(t *testing.T) {
	if _, err := ParseSpec([]byte(`{"name": "x", "bogus_field": 1}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := ParseSpec([]byte(`{"name": "x"} trailing`)); err == nil {
		t.Fatal("trailing data accepted")
	}
	sp, err := ParseSpec(MarshalSpec(DefaultSpec()))
	if err != nil {
		t.Fatalf("canonical default spec rejected: %v", err)
	}
	if got, want := string(MarshalSpec(sp)), string(MarshalSpec(DefaultSpec())); got != want {
		t.Fatal("marshal/parse round trip changed the spec")
	}
}

func TestCompileDeterministicAndOrdered(t *testing.T) {
	a, err := Compile(DefaultSpec(), 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compile(DefaultSpec(), 42)
	if err != nil {
		t.Fatal(err)
	}
	ab := MarshalCorpus(&Corpus{Spec: DefaultSpec(), Seed: 42, Cells: a})
	bb := MarshalCorpus(&Corpus{Spec: DefaultSpec(), Seed: 42, Cells: b})
	if string(ab) != string(bb) {
		t.Fatal("two compiles of the same (spec, seed) differ")
	}
	c, err := Compile(DefaultSpec(), 43)
	if err != nil {
		t.Fatal(err)
	}
	if len(c) > 0 && len(a) > 0 && a[0].Seed == c[0].Seed && a[0].At == c[0].At {
		t.Fatal("different root seeds produced the same first cell")
	}
	seeds := map[int64]bool{}
	for i, cell := range a {
		if cell.Index != i {
			t.Fatalf("cell %d has index %d", i, cell.Index)
		}
		if i > 0 && cell.At < a[i-1].At {
			t.Fatalf("cells not sorted by arrival at %d", i)
		}
		if seeds[cell.Seed] {
			t.Fatalf("duplicate cell seed %d", cell.Seed)
		}
		seeds[cell.Seed] = true
		if MobilityScenario(cell.Scenario) {
			if len(cell.Hops) < 2 || cell.LossyHop < 0 || cell.LossyHop >= len(cell.Hops)-1 {
				t.Fatalf("mobility cell %d has hops=%d lossy=%d", i, len(cell.Hops), cell.LossyHop)
			}
			if cell.Plane != "control" || cell.Code != 9 {
				t.Fatalf("mobility cell %d labeled %s/%d, want control/9", i, cell.Plane, cell.Code)
			}
		}
	}
}

// TestArrivalShaping verifies the rate modulation actually modulates:
// a storm multiplies the event count during its window, and the base
// interarrival mean tracks 1/rate.
func TestArrivalShaping(t *testing.T) {
	base := &Spec{
		Name: "shaping", HorizonMin: 60,
		Populations: []Population{{
			Name: "p", Count: 10, Mode: "legacy",
			Arrival: ArrivalSpec{Process: "poisson", RatePerMin: 1},
			Mix:     []CauseMix{{Plane: "control", Code: 9, Weight: 1, Scenario: ScenDesync}},
		}},
	}
	plain, err := Compile(base, 7)
	if err != nil {
		t.Fatal(err)
	}
	stormy := *base
	stormy.Populations = append([]Population(nil), base.Populations...)
	stormy.Populations[0].Arrival.Storms = []Storm{{AtMin: 0, DurMin: 60, Mult: 5}}
	burst, err := Compile(&stormy, 7)
	if err != nil {
		t.Fatal(err)
	}
	// 10 devices × 1/min × 60 min ≈ 600 events; the ×5 storm ≈ 3000.
	if len(plain) < 400 || len(plain) > 800 {
		t.Fatalf("plain corpus %d events, want ≈600", len(plain))
	}
	if len(burst) < 3*len(plain) {
		t.Fatalf("storm corpus %d events, want ≥ 3× plain %d", len(burst), len(plain))
	}

	for _, proc := range []ArrivalSpec{
		{Process: "gamma", RatePerMin: 2, Shape: 3},
		{Process: "weibull", RatePerMin: 2, Shape: 1.5},
	} {
		s := newArrivalSampler(&proc, rand.New(rand.NewSource(1)))
		n := 4000
		var last, sum time.Duration
		for i := 0; i < n; i++ {
			at := s.next()
			sum += at - last
			last = at
		}
		mean := float64(sum) / float64(n) / float64(time.Minute)
		if mean < 0.4 || mean > 0.6 {
			t.Fatalf("%s mean interarrival %.3f min, want ≈0.5", proc.Process, mean)
		}
	}
}

func TestSampleWalkInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	mob := &MobilitySpec{Model: "random-waypoint", HopsMin: 2, HopsMax: 6, DwellMeanSec: 15}
	for i := 0; i < 200; i++ {
		scen := ScenHandoverDesync
		if i%2 == 1 {
			scen = ScenTAURace
		}
		hops, lossy := SampleWalk(rng, 4, mob, scen)
		if len(hops) < 2 || len(hops) > 6 {
			t.Fatalf("walk length %d outside [2, 6]", len(hops))
		}
		if lossy != len(hops)-2 {
			t.Fatalf("lossy hop %d, want %d", lossy, len(hops)-2)
		}
		prev := 0
		for _, h := range hops {
			if h.To < 0 || h.To >= 4 || h.To == prev {
				t.Fatalf("hop to %d from %d invalid", h.To, prev)
			}
			if h.Dwell <= 0 {
				t.Fatalf("non-positive dwell %v", h.Dwell)
			}
			prev = h.To
		}
		race := hops[lossy+1].Dwell
		if scen == ScenHandoverDesync && (race < 100*time.Millisecond || race > 700*time.Millisecond) {
			t.Fatalf("handover-desync race dwell %v outside [100ms, 700ms]", race)
		}
		if scen == ScenTAURace && (race < 1500*time.Millisecond || race > 6*time.Second) {
			t.Fatalf("tau-race race dwell %v outside [1.5s, 6s]", race)
		}
	}
}

func TestPearsonAndCDFScores(t *testing.T) {
	if r := pearsonR([]float64{1, 2, 3}, []float64{2, 4, 6}); math.Abs(r-1) > 1e-12 {
		t.Fatalf("perfect correlation r=%v", r)
	}
	if r := pearsonR([]float64{1, 2, 3}, []float64{3, 2, 1}); math.Abs(r+1) > 1e-12 {
		t.Fatalf("perfect anticorrelation r=%v", r)
	}
	if r := pearsonR([]float64{1, 1, 1}, []float64{1, 2, 3}); r != 0 {
		t.Fatalf("constant series r=%v, want 0", r)
	}

	// Durations matched exactly to the probe targets: 100 samples per
	// plane, F(probe) = target F ⇒ KS = 0, r = 1.
	build := func(targets []CDFTarget) []time.Duration {
		var durs []time.Duration
		prev := 0.0
		for _, p := range targets {
			n := int(p.F*100+0.5) - int(prev*100+0.5)
			for i := 0; i < n; i++ {
				durs = append(durs, time.Duration(p.AtSec*float64(time.Second))-time.Duration(i))
			}
			prev = p.F
		}
		return durs
	}
	control := build(Figure2ControlTargets)
	data := build(Figure2DataTargets)
	ksC, ksD, r := CDFScores(control, data, 100, 100)
	if ksC > 0.01 || ksD > 0.01 {
		t.Fatalf("matched CDFs scored KS %v / %v, want ≈0", ksC, ksD)
	}
	if r < 0.999 {
		t.Fatalf("matched CDFs scored r=%v, want ≈1", r)
	}

	// No recoveries at all: KS is the largest target F.
	ksC, _, _ = CDFScores(nil, nil, 100, 100)
	want := Figure2ControlTargets[len(Figure2ControlTargets)-1].F
	if math.Abs(ksC-want) > 1e-9 {
		t.Fatalf("empty CDF KS %v, want %v", ksC, want)
	}
}

func TestStatsOfAndCauseLabels(t *testing.T) {
	cells := []Cell{
		{Plane: "control", Code: 9, Scenario: ScenTransient},
		{Plane: "control", Scenario: ScenSilent},
		{Plane: "data", Code: 54, Scenario: ScenDesync},
		{Plane: "control", Code: 9, Scenario: ScenHandoverDesync, LossyHop: 0},
	}
	runs := []Run{{Index: 3, Outcome: Outcome{Recovered: true, Handovers: 3, ContextLoss: 1}}}
	st := StatsOf(cells, runs)
	if st.Cells != 4 || st.ControlShare != 0.75 {
		t.Fatalf("stats %+v", st)
	}
	shares := map[string]int{}
	for _, c := range st.Causes {
		shares[c.Cause] = c.Count
	}
	if shares["control/9"] != 2 || shares["control/timeout"] != 1 || shares["data/54"] != 1 {
		t.Fatalf("cause marginal %v", shares)
	}
	if st.Measured != 1 || st.Recovered != 1 || st.Handovers != 3 || st.ContextLoss != 1 {
		t.Fatalf("execution aggregates %+v", st)
	}
}

// TestDefaultSpecMixWithinGate holds the built-in paper-mix spec — the one
// seedwl, seedpolicy and the benchmark's corpus compile — to Table 1 at
// seeds 1–10: cause-mix MAPE ≤ 0.10 and control-share error ≤ 0.03.
func TestDefaultSpecMixWithinGate(t *testing.T) {
	for s := int64(1); s <= 10; s++ {
		cells, err := Compile(DefaultSpec(), s)
		if err != nil {
			t.Fatal(err)
		}
		mape, planeErr := MixScores(cells)
		t.Logf("seed %d: mix MAPE %.4f, plane error %.4f", s, mape, planeErr)
		if mape > 0.10 {
			t.Errorf("seed %d: default spec mix MAPE %.4f, want ≤ 0.10", s, mape)
		}
		if planeErr > 0.03 {
			t.Errorf("seed %d: default spec plane error %.4f, want ≤ 0.03", s, planeErr)
		}
	}
}

// TestStationaryMixPlaneSplit keeps the Table 1 mix — the dataset's and
// the stationary population's — on the published class split: control
// plane 56.2 %, data plane 43.8 %, every weight positive.
func TestStationaryMixPlaneSplit(t *testing.T) {
	var control, data float64
	for _, m := range StationaryMix() {
		if m.Weight <= 0 {
			t.Fatalf("non-positive weight for %+v", m)
		}
		if m.Plane == "control" || MobilityScenario(m.Scenario) {
			control += m.Weight
		} else {
			data += m.Weight
		}
	}
	if math.Abs(control-ControlShareTarget) > 0.005 || math.Abs(data-(1-ControlShareTarget)) > 0.005 {
		t.Fatalf("plane split drifted: control=%.3f data=%.3f", control, data)
	}
}
