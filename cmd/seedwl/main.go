// Command seedwl compiles declarative workload specs into deterministic
// failure-scenario corpora and calibrates them against the SEED paper's
// published marginals.
//
// Usage:
//
//	seedwl [-spec FILE] [-seed S] [-parallel P] [-run N] [-out FILE]
//	       [-selfcheck] [-dumpspec]
//	seedwl -calibrate [-spec FILE] [-seed S] [-parallel P]
//	       [-calsamples N] [-topk K] [-run N] [-selfcheck]
//	       [-maxmape F] [-maxerr F] [-bench FILE]
//
// Generate mode (default) compiles the spec (built-in paper-mix when
// -spec is absent) into its flat cell list, optionally replays a stride
// sample of -run cells end-to-end on the emulated testbed (-run -1 for
// every cell), and writes the canonical corpus JSON to -out ("-" for
// stdout). -dumpspec prints the effective spec and exits. -selfcheck
// re-runs the whole pipeline with one worker and byte-compares the two
// corpora — the determinism gate CI enforces.
//
// Calibrate mode runs the bounded two-phase grid search of
// internal/workload: every grid point's compiled corpus is scored against
// the Table 1 cause mix (MAPE), then the -topk finalists replay
// -calsamples legacy cells each to score the Figure 2 disruption CDFs
// (KS distance + Pearson correlation). The winner's corpus is then
// replayed under its populations' native modes — including the
// mobility-induced scenarios — and the winning spec, scores, corpus
// stats, and per-scenario mobility outcomes land in -bench
// (BENCH_workload.json). Exit status is non-zero when the winner's mix
// MAPE exceeds -maxmape, its composite error exceeds -maxerr, or the
// determinism self-check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	seed "github.com/seed5g/seed"
	"github.com/seed5g/seed/internal/runner"
	"github.com/seed5g/seed/internal/workload"
)

// mobilityOutcome is the measured end-to-end result of one mobility
// scenario class under one failure-handling mode.
type mobilityOutcome struct {
	Scenario    string  `json:"scenario"`
	Mode        string  `json:"mode"`
	Measured    int     `json:"measured"`
	Recovered   int     `json:"recovered"`
	MedianMS    float64 `json:"median_disruption_ms"`
	Handovers   int     `json:"handovers"`
	ContextLoss int     `json:"context_loss"`
}

// workloadBench is the BENCH_workload.json document.
type workloadBench struct {
	Seed       int64  `json:"seed"`
	SpecName   string `json:"spec_name"`
	Parallel   int    `json:"parallel"`
	GridPoints int    `json:"grid_points"`
	Finalists  int    `json:"finalists"`
	// Replayed counts the legacy replays the CDF phase spent.
	Replayed int `json:"replayed"`
	// Winner carries the winning knobs and scores; Scores duplicates the
	// winner's scores at the top level for easy extraction.
	Winner     workload.Candidate `json:"winner"`
	Scores     workload.Scores    `json:"scores"`
	WinnerSpec *workload.Spec     `json:"winner_spec"`
	// Stats are the winner corpus marginals plus native-mode execution
	// aggregates of the measured sample.
	Stats    *workload.Stats   `json:"stats"`
	Mobility []mobilityOutcome `json:"mobility"`
	// Deterministic reports the one-worker re-run matched byte-for-byte.
	Deterministic bool    `json:"deterministic"`
	WallMS        float64 `json:"wall_ms"`
}

func main() {
	specPath := flag.String("spec", "", "workload spec JSON (default: built-in paper-mix spec)")
	seedVal := flag.Int64("seed", 1, "root simulation seed")
	parallel := flag.Int("parallel", 0, "cell worker goroutines (0 = GOMAXPROCS, 1 = sequential)")
	runN := flag.Int("run", 0, "replay this many stride-sampled cells end-to-end (-1 = all, 0 = compile only)")
	out := flag.String("out", "", "write the corpus JSON to this file (- for stdout)")
	selfCheck := flag.Bool("selfcheck", false, "re-run with one worker and byte-compare the corpora (determinism gate)")
	dumpSpec := flag.Bool("dumpspec", false, "print the effective spec JSON and exit")
	calibrate := flag.Bool("calibrate", false, "run the calibration grid search instead of plain generation")
	calSamples := flag.Int("calsamples", 120, "legacy replays per finalist for CDF scoring")
	topK := flag.Int("topk", 3, "grid finalists that reach the replay phase")
	maxMAPE := flag.Float64("maxmape", 0.10, "fail when the winner's Table 1 mix MAPE exceeds this")
	maxErr := flag.Float64("maxerr", 0.50, "fail when the winner's composite error exceeds this")
	benchOut := flag.String("bench", "BENCH_workload.json", "calibration report file (- for stdout)")
	flag.Parse()

	sp, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "seedwl: %v\n", err)
		os.Exit(2)
	}
	if *dumpSpec {
		os.Stdout.Write(workload.MarshalSpec(sp))
		return
	}

	p := runner.New(*parallel)
	if *calibrate {
		os.Exit(runCalibrate(p, sp, *seedVal, *calSamples, *topK, *runN, *selfCheck, *maxMAPE, *maxErr, *benchOut))
	}
	os.Exit(runGenerate(p, sp, *seedVal, *runN, *selfCheck, *out))
}

// loadSpec reads and validates a spec file, or returns the built-in
// paper-anchored default.
func loadSpec(path string) (*workload.Spec, error) {
	if path == "" {
		return workload.DefaultSpec(), nil
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	sp, err := workload.ParseSpec(blob)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := sp.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return sp, nil
}

// buildCorpus compiles the spec and measures a stride sample of runN
// cells (plus, when runN > 0, every mobility cell — they are the
// scenarios only end-to-end replay can characterize).
func buildCorpus(p *runner.Pool, sp *workload.Spec, seedVal int64, runN int) (*workload.Corpus, error) {
	cells, err := workload.Compile(sp, seedVal)
	if err != nil {
		return nil, err
	}
	runs := measureSample(p, sp, cells, sampleIndexes(cells, runN))
	return &workload.Corpus{
		Spec: sp, Seed: seedVal, Cells: cells,
		Runs: runs, Stats: workload.StatsOf(cells, runs),
	}, nil
}

// sampleIndexes picks the cell indexes to replay: an even stride of n
// across the corpus, united with every mobility cell when sampling.
func sampleIndexes(cells []workload.Cell, n int) []int {
	if n == 0 {
		return nil
	}
	if n < 0 || n >= len(cells) {
		all := make([]int, len(cells))
		for i := range all {
			all[i] = i
		}
		return all
	}
	pick := map[int]bool{}
	step := float64(len(cells)) / float64(n)
	for i := 0; i < n; i++ {
		pick[int(float64(i)*step)] = true
	}
	for i, c := range cells {
		if workload.MobilityScenario(c.Scenario) {
			pick[i] = true
		}
	}
	idx := make([]int, 0, len(pick))
	for i := range pick {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	return idx
}

// measureSample replays the selected cells under their populations'
// native modes and tags each outcome with its cell index.
func measureSample(p *runner.Pool, sp *workload.Spec, cells []workload.Cell, idx []int) []workload.Run {
	if len(idx) == 0 {
		return nil
	}
	return runner.Map(p, len(idx), func(i int) workload.Run {
		c := cells[idx[i]]
		mode, _ := seed.ParseMode(c.Mode)
		return workload.Run{Index: idx[i], Outcome: seed.RunWorkloadCell(sp, c, mode, nil)}
	})
}

// runGenerate is the default mode: compile, optionally replay, emit.
func runGenerate(p *runner.Pool, sp *workload.Spec, seedVal int64, runN int, selfCheck bool, out string) int {
	corpus, err := buildCorpus(p, sp, seedVal, runN)
	if err != nil {
		fmt.Fprintf(os.Stderr, "seedwl: %v\n", err)
		return 2
	}
	blob := workload.MarshalCorpus(corpus)

	ok := true
	if selfCheck {
		if !recheckCorpus(sp, seedVal, runN, blob) {
			fmt.Fprintf(os.Stderr, "seedwl: DETERMINISM FAILURE: one-worker corpus differs from %d-worker corpus\n", p.Workers())
			ok = false
		} else {
			fmt.Printf("selfcheck: corpus bit-identical at 1 and %d workers\n", p.Workers())
		}
	}

	if out != "" {
		if err := writeBlob(out, blob); err != nil {
			fmt.Fprintf(os.Stderr, "seedwl: %v\n", err)
			return 2
		}
	}
	st := corpus.Stats
	fmt.Printf("spec %q seed %d: %d cells, control share %.3f, %d scenarios",
		sp.Name, seedVal, st.Cells, st.ControlShare, len(st.Scenarios))
	built := -1
	if st.Measured > 0 {
		fmt.Printf("; measured %d (recovered %d, handovers %d, context loss %d)",
			st.Measured, st.Recovered, st.Handovers, st.ContextLoss)
		// Restores are one per measured non-desync cell (a -selfcheck pass
		// counts here too). Builds depend on how the workers' first cells
		// overlapped, so they go to stderr: above the worker count they mean
		// cells constructed testbeds instead of restoring one.
		for _, f := range seed.PrototypeStats() {
			if f.Family == "cold" {
				fmt.Printf("; cold prototypes restored %d", f.Restores)
				built = f.Boots
			}
		}
	}
	fmt.Println()
	if built >= 0 {
		fmt.Fprintf(os.Stderr, "seedwl: cold prototypes built %d\n", built)
	}
	if !ok {
		return 1
	}
	return 0
}

// recheckCorpus rebuilds the corpus with one worker and compares bytes.
func recheckCorpus(sp *workload.Spec, seedVal int64, runN int, want []byte) bool {
	corpus, err := buildCorpus(runner.New(1), sp, seedVal, runN)
	if err != nil {
		return false
	}
	return string(workload.MarshalCorpus(corpus)) == string(want)
}

// runCalibrate runs the grid search, measures the winner (native modes,
// mobility included), self-checks determinism, and writes the report.
func runCalibrate(p *runner.Pool, sp *workload.Spec, seedVal int64, calSamples, topK, runN int, selfCheck bool, maxMAPE, maxErr float64, benchOut string) int {
	start := time.Now()
	if runN == 0 {
		runN = 240 // default native-mode sample of the winner corpus
	}
	res, err := workload.Calibrate(workload.CalibrateConfig{
		Base: sp, Seed: seedVal, TopK: topK, Samples: calSamples,
	}, func(sp *workload.Spec, cells []workload.Cell) []workload.Outcome {
		// Legacy handling regardless of population mode: the Figure 2 CDF
		// the calibration targets describe is the legacy baseline.
		return runner.Map(p, len(cells), func(i int) workload.Outcome {
			return seed.RunWorkloadCell(sp, cells[i], seed.ModeLegacy, nil)
		})
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "seedwl: calibrate: %v\n", err)
		return 2
	}

	runs := measureSample(p, res.BestSpec, res.BestCells, sampleIndexes(res.BestCells, runN))
	winnerBlob := workload.MarshalCorpus(&workload.Corpus{
		Spec: res.BestSpec, Seed: seedVal, Cells: res.BestCells,
		Runs: runs, Stats: workload.StatsOf(res.BestCells, runs),
	})

	deterministic := true
	if selfCheck {
		deterministic = recheckCorpus(res.BestSpec, seedVal, runN, winnerBlob)
		if deterministic {
			fmt.Printf("selfcheck: winner corpus bit-identical at 1 and %d workers\n", p.Workers())
		} else {
			fmt.Fprintf(os.Stderr, "seedwl: DETERMINISM FAILURE: one-worker winner corpus differs\n")
		}
	}

	bench := workloadBench{
		Seed: seedVal, SpecName: sp.Name, Parallel: p.Workers(),
		GridPoints: len(res.Evaluated), Finalists: topKCount(res.Evaluated),
		Replayed: res.Replayed,
		Winner:   res.Best, Scores: res.Best.Scores, WinnerSpec: res.BestSpec,
		Stats:         workload.StatsOf(res.BestCells, runs),
		Mobility:      mobilitySummary(res.BestCells, runs),
		Deterministic: deterministic,
		WallMS:        float64(time.Since(start)) / float64(time.Millisecond),
	}
	blob, err := json.MarshalIndent(bench, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "seedwl: %v\n", err)
		return 2
	}
	blob = append(blob, '\n')
	if benchOut != "" {
		if err := writeBlob(benchOut, blob); err != nil {
			fmt.Fprintf(os.Stderr, "seedwl: %v\n", err)
			return 2
		}
	}

	sc := res.Best.Scores
	fmt.Printf("calibration winner %+v: mix MAPE %.4f, KS control %.3f, KS data %.3f, Pearson r %.3f, composite %.4f (%d grid points, %d legacy replays)\n",
		res.Best.Knobs, sc.MixMAPE, sc.KSControl, sc.KSData, sc.PearsonR, sc.Composite, len(res.Evaluated), res.Replayed)
	for _, m := range bench.Mobility {
		fmt.Printf("  mobility %-16s %-7s measured %2d recovered %2d median %8.0fms handovers %3d context-loss %2d\n",
			m.Scenario, m.Mode, m.Measured, m.Recovered, m.MedianMS, m.Handovers, m.ContextLoss)
	}

	fail := false
	if sc.MixMAPE > maxMAPE {
		fmt.Fprintf(os.Stderr, "seedwl: FAIL: mix MAPE %.4f exceeds -maxmape %.4f\n", sc.MixMAPE, maxMAPE)
		fail = true
	}
	if sc.Composite > maxErr {
		fmt.Fprintf(os.Stderr, "seedwl: FAIL: composite %.4f exceeds -maxerr %.4f\n", sc.Composite, maxErr)
		fail = true
	}
	if !deterministic {
		fail = true
	}
	if fail {
		return 1
	}
	return 0
}

func topKCount(cands []workload.Candidate) int {
	n := 0
	for _, c := range cands {
		if c.Finalist {
			n++
		}
	}
	return n
}

// mobilitySummary aggregates measured mobility runs per (scenario, mode).
func mobilitySummary(cells []workload.Cell, runs []workload.Run) []mobilityOutcome {
	type key struct{ scenario, mode string }
	agg := map[key]*mobilityOutcome{}
	durs := map[key][]float64{}
	for _, r := range runs {
		c := cells[r.Index]
		if !workload.MobilityScenario(c.Scenario) {
			continue
		}
		k := key{c.Scenario, c.Mode}
		m := agg[k]
		if m == nil {
			m = &mobilityOutcome{Scenario: c.Scenario, Mode: c.Mode}
			agg[k] = m
		}
		m.Measured++
		m.Handovers += r.Handovers
		m.ContextLoss += r.ContextLoss
		if r.Recovered {
			m.Recovered++
			durs[k] = append(durs[k], float64(r.Disruption)/float64(time.Millisecond))
		}
	}
	out := make([]mobilityOutcome, 0, len(agg))
	for k, m := range agg {
		if ds := durs[k]; len(ds) > 0 {
			sort.Float64s(ds)
			m.MedianMS = ds[len(ds)/2]
		}
		out = append(out, *m)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Scenario != out[j].Scenario {
			return out[i].Scenario < out[j].Scenario
		}
		return out[i].Mode < out[j].Mode
	})
	return out
}

// writeBlob writes bytes to a file or stdout ("-").
func writeBlob(path string, blob []byte) error {
	if path == "-" {
		_, err := os.Stdout.Write(blob)
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}
