package seed_test

// End-to-end workload tests: a compiled corpus plus its measured
// outcomes must be byte-identical at every parallelism level, the
// mobility-induced failure classes must show the paper's legacy-vs-SEED
// contrast, and the per-edge context-loss knob must actually steer
// handover context transfers.

import (
	"strings"
	"testing"
	"time"

	seed "github.com/seed5g/seed"
	"github.com/seed5g/seed/internal/runner"
	"github.com/seed5g/seed/internal/workload"
)

// testSpec is a small mixed workload: transients, a mobility race, and a
// stale config, across two modes.
func testSpec() *workload.Spec {
	return &workload.Spec{
		Name:       "test-mini",
		HorizonMin: 20,
		Cells:      workload.CellGraph{N: 3, DefaultContextLoss: 0.1, Edges: []workload.Edge{{From: 0, To: 1, ContextLoss: 0.4}}},
		Populations: []workload.Population{
			{
				Name: "movers", Count: 3, Mode: "legacy",
				Arrival: workload.ArrivalSpec{Process: "poisson", RatePerMin: 0.3},
				Mix: []workload.CauseMix{
					{Plane: "control", Code: 9, Weight: 0.5, Scenario: workload.ScenTransient, HealMedianMS: 4000, HealSigma: 0.5},
					{Weight: 0.3, Scenario: workload.ScenHandoverDesync},
					{Weight: 0.2, Scenario: workload.ScenTAURace},
				},
				Mobility: &workload.MobilitySpec{Model: "random-waypoint", HopsMin: 2, HopsMax: 4, DwellMeanSec: 10},
			},
			{
				Name: "fixed", Count: 2, Mode: "seed-u",
				Arrival: workload.ArrivalSpec{Process: "gamma", RatePerMin: 0.2, Shape: 2},
				Mix: []workload.CauseMix{
					{Plane: "data", Code: 54, Weight: 1, Scenario: workload.ScenDesync},
				},
				RF: &workload.RFSpec{JitterMS: 1},
			},
		},
	}
}

// TestWorkloadCorpusParallelDeterminism is the golden gate: the full
// corpus — spec, cells, measured outcomes, stats — marshals to the same
// bytes at 1, 2, and 8 workers.
func TestWorkloadCorpusParallelDeterminism(t *testing.T) {
	sp := testSpec()
	var golden []byte
	for _, lvl := range []int{1, 2, 8} {
		cells, err := workload.Compile(sp, 11)
		if err != nil {
			t.Fatal(err)
		}
		outcomes := runner.Map(runner.New(lvl), len(cells), func(i int) workload.Outcome {
			mode, _ := seed.ParseMode(cells[i].Mode)
			return seed.RunWorkloadCell(sp, cells[i], mode, nil)
		})
		runs := make([]workload.Run, len(outcomes))
		for i, o := range outcomes {
			runs[i] = workload.Run{Index: i, Outcome: o}
		}
		blob := workload.MarshalCorpus(&workload.Corpus{
			Spec: sp, Seed: 11, Cells: cells,
			Runs: runs, Stats: workload.StatsOf(cells, runs),
		})
		if golden == nil {
			golden = blob
			continue
		}
		if string(blob) != string(golden) {
			t.Fatalf("corpus at parallelism %d differs from the 1-worker corpus", lvl)
		}
	}
	if golden == nil {
		t.Fatal("no corpus produced")
	}
}

// TestRFWindowsShapeReplay drives the scheduled RF impairment windows
// end to end: a partition window laid over the failure onset must delay
// recovery relative to the same cell without windows, a window that
// closes before the failure must leave the outcome untouched, and both
// arms must be deterministic across repeated runs.
func TestRFWindowsShapeReplay(t *testing.T) {
	cell := workload.Cell{Plane: "control", Code: 9, Scenario: workload.ScenTransient, Heal: 2 * time.Second, Seed: 21}
	run := func(loss []workload.LossWindow, partitions []workload.PartitionWindow) workload.Outcome {
		c := cell
		c.LossWindows, c.PartitionWindows = loss, partitions
		return seed.RunWorkloadCell(testSpec(), c, seed.ModeSEEDU, nil)
	}
	plain := run(nil, nil)
	if !plain.Recovered {
		t.Fatalf("baseline did not recover: %+v", plain)
	}
	// Replays inject the failure ~5s after boot; a partition from 3s to
	// 33s swallows the failure onset and the recovery traffic.
	blocking := []workload.PartitionWindow{{AtSec: 3, DurSec: 30}}
	blocked := run(nil, blocking)
	if blocked.Recovered && blocked.Disruption <= plain.Disruption {
		t.Fatalf("partition window did not slow recovery: %v vs %v", blocked.Disruption, plain.Disruption)
	}
	// A window that opens and closes before the failure must be invisible
	// in the outcome.
	early := run([]workload.LossWindow{{AtSec: 1, DurSec: 1, Loss: 0.9}}, nil)
	if early.Recovered != plain.Recovered || early.Disruption != plain.Disruption {
		t.Fatalf("pre-failure window changed the outcome: %+v vs %+v", early, plain)
	}
	for i := 0; i < 2; i++ {
		if again := run(nil, blocking); again.Recovered != blocked.Recovered || again.Disruption != blocked.Disruption {
			t.Fatalf("windowed replay not deterministic: %+v vs %+v", again, blocked)
		}
	}
}

// TestMobilityContrast replays the two mobility-induced classes under
// every stack: legacy recovery rides the T3502 backoff (minutes), SEED
// diagnoses the lost context and recovers in seconds.
func TestMobilityContrast(t *testing.T) {
	sp := &workload.Spec{Cells: workload.CellGraph{N: 3, DefaultContextLoss: 0}}
	cell := workload.Cell{
		Scenario: workload.ScenHandoverDesync,
		Hops: []workload.Hop{
			{To: 1, Dwell: 5 * time.Second},
			{To: 2, Dwell: 300 * time.Millisecond},
		},
		LossyHop: 0,
		Seed:     21,
	}
	res := map[seed.Mode]workload.Outcome{}
	for _, mode := range []seed.Mode{seed.ModeLegacy, seed.ModeSEEDU, seed.ModeSEEDR} {
		r := seed.RunWorkloadCell(sp, cell, mode, nil)
		if !r.Recovered {
			t.Fatalf("mode %v did not recover", mode)
		}
		if r.Handovers < 2 {
			t.Fatalf("mode %v counted %d handovers, want ≥ 2", mode, r.Handovers)
		}
		res[mode] = r
	}
	if res[seed.ModeLegacy].Disruption < 10*res[seed.ModeSEEDU].Disruption {
		t.Fatalf("legacy %v vs seed-u %v: want ≥ 10× contrast",
			res[seed.ModeLegacy].Disruption, res[seed.ModeSEEDU].Disruption)
	}
	if res[seed.ModeSEEDU].Disruption > time.Minute || res[seed.ModeSEEDR].Disruption > time.Minute {
		t.Fatalf("SEED recovery too slow: seed-u %v, seed-r %v",
			res[seed.ModeSEEDU].Disruption, res[seed.ModeSEEDR].Disruption)
	}
}

// TestEdgeContextLoss pins the per-edge knob: probability 1 on an edge
// loses the context on that handover, probability 0 never does.
func TestEdgeContextLoss(t *testing.T) {
	run := func(p float64) (handovers, lost int) {
		tb := seed.New(31)
		tb.EnableCells(2, 0)
		tb.SetEdgeContextLoss(0, 1, p)
		d := tb.NewDevice(seed.ModeSEEDU)
		d.Start()
		if !tb.RunUntil(d.Connected, time.Minute) {
			t.Fatal("device never connected")
		}
		tb.Advance(time.Second)
		tb.Handover(d, 1, false)
		tb.RunUntil(d.Connected, 30*time.Minute)
		return tb.Handovers()
	}
	if hos, lost := run(1); hos != 1 || lost != 1 {
		t.Fatalf("p=1: %d handovers, %d lost, want 1/1", hos, lost)
	}
	if hos, lost := run(0); hos != 1 || lost != 0 {
		t.Fatalf("p=0: %d handovers, %d lost, want 1/0", hos, lost)
	}
}

// TestExperimentMobilityDeterminism covers the seedbench registration:
// same seed ⇒ same rendered table, and both scenario classes appear.
func TestExperimentMobilityDeterminism(t *testing.T) {
	a := seed.ExperimentMobility(testPool, 4, 2).Render()
	b := seed.ExperimentMobility(testPool, 4, 2).Render()
	if a != b {
		t.Fatal("ExperimentMobility not deterministic")
	}
	for _, want := range []string{"handover-desync", "tau-race", "Legacy", "SEED-U", "SEED-R"} {
		if !strings.Contains(a, want) {
			t.Fatalf("mobility table missing %q:\n%s", want, a)
		}
	}
}

// TestDefaultSpecFigure2Shape holds the built-in paper-mix spec — the one
// seedwl, seedpolicy and the benchmark's corpus run — to Figure 2: at
// seeds 1–10, a 120-cell even stride of its corpus replayed under legacy
// handling keeps each plane's disruption CDF within a KS bound of the
// figure's probe points and correlates with them. Each score is bounded
// on its own.
func TestDefaultSpecFigure2Shape(t *testing.T) {
	const sample = 120
	sp := workload.DefaultSpec()
	for s := int64(1); s <= 10; s++ {
		cells, err := workload.Compile(sp, s)
		if err != nil {
			t.Fatal(err)
		}
		if len(cells) < sample {
			t.Fatalf("seed %d: %d cells, want ≥ %d", s, len(cells), sample)
		}
		picked := make([]workload.Cell, sample)
		step := float64(len(cells)) / sample
		for i := range picked {
			picked[i] = cells[int(float64(i)*step)]
		}
		outcomes := runner.Map(testPool, sample, func(i int) workload.Outcome {
			return seed.RunWorkloadCell(sp, picked[i], seed.ModeLegacy, nil)
		})
		var control, data []time.Duration
		var controlTotal, dataTotal int
		for i, c := range picked {
			if c.Scenario == workload.ScenUserAction {
				continue // Figure 2 excludes cases no scheme can recover
			}
			if c.Plane == "control" {
				controlTotal++
				if outcomes[i].Recovered {
					control = append(control, outcomes[i].Disruption)
				}
			} else {
				dataTotal++
				if outcomes[i].Recovered {
					data = append(data, outcomes[i].Disruption)
				}
			}
		}
		ksC, ksD, r := workload.CDFScores(control, data, controlTotal, dataTotal)
		t.Logf("seed %d: KS control %.3f, KS data %.3f, Pearson r %.3f", s, ksC, ksD, r)
		if ksC > 0.30 {
			t.Errorf("seed %d: KS control %.3f, want ≤ 0.30", s, ksC)
		}
		if ksD > 0.45 {
			t.Errorf("seed %d: KS data %.3f, want ≤ 0.45", s, ksD)
		}
		if r < 0.85 {
			t.Errorf("seed %d: Pearson r %.3f, want ≥ 0.85", s, r)
		}
	}
}
