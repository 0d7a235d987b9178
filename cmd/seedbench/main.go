// Command seedbench regenerates the tables and figures of the SEED paper's
// evaluation section (§7) on the emulated testbed and prints them as text.
//
// Usage:
//
//	seedbench [-exp all|table1|table2|table3|table4|table5|figure2|figure3|
//	           figure11a|figure11b|figure12|figure13|causes|coverage|learning|mobility]
//	          [-samples N] [-seed S] [-parallel P] [-reps N] [-json FILE]
//	          [-cpuprofile FILE] [-memprofile FILE]
//
// Everything runs on the virtual clock: regenerating the full evaluation
// takes seconds of wall time. Independent scenario cells fan across
// -parallel worker goroutines (default GOMAXPROCS); results are
// bit-for-bit identical at any parallelism, which the root package's
// TestExperimentsParallelDeterminism and the CI workflow check.
//
// Each piece of work is done once, on the pool it is given. Table 4,
// Figure 2, the per-cause breakdown and the coverage all read the same
// replayed cases, so a "grid" row ahead of Figure 2 replays every dataset
// cell they count once (timed like an experiment, printed as a timing line
// only) and those four experiments fold it. Under -exp all the grid runs
// once for the four; naming one of them alone (-exp figure2) runs the grid
// and then it.
//
// -json FILE writes machine-readable per-experiment results and
// wall-clock timings ("-" for stdout), plus the boot/restore counts of each
// prototype family (proto_boots/proto_restores) and the wall time its boots
// and their snapshots took (boot_ms/snapshot_ms). Each experiment's record,
// and its "[… regenerated in …]" line, also says what the collector did
// during one run of it (gc_cycles and alloc_mb), and how large the live
// heap was after it (live_mb); "runs" counts how often the experiment
// executed in this invocation and the grid's "cells" how many cells it
// replayed. -reps N runs each experiment N times and records the fastest
// run: experiments are deterministic, so every run prints the same text
// and the minimum is the least noisy time. At the default -reps 1 the one
// run is the measurement, cold prototype boots included.
// -cpuprofile/-memprofile write pprof profiles of the whole run
// for `go tool pprof` (the profiling workflow in EXPERIMENTS.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"strings"
	"time"

	seed "github.com/seed5g/seed"
	"github.com/seed5g/seed/internal/metrics"
	"github.com/seed5g/seed/internal/runner"
)

// experiment is one row of the suite: its -exp name and what it runs, a
// function of the pool that returns the text it regenerated. A row that
// fans no cells (a formatter, an experiment on one kernel, a fold of the
// grid) ignores the pool; the grid returns no text, only the value its
// folds read.
type experiment struct {
	name string
	run  func(p *runner.Pool) string
}

// expTiming is one experiment's machine-readable record.
type expTiming struct {
	Name   string  `json:"name"`
	WallMS float64 `json:"wall_ms"`
	// Runs is how many times the experiment executed in this invocation:
	// -reps.
	Runs int `json:"runs"`
	// Cells is how many scenario cells the grid replayed.
	Cells int `json:"cells,omitempty"`
	// GCCycles and AllocMB say what the collector did during one run of
	// the experiment (means over the runs, runtime/metrics deltas around
	// them): a time short of what the worker count promises beside a high
	// cycle count is the collector, not the runner.
	GCCycles float64 `json:"gc_cycles"`
	AllocMB  float64 `json:"alloc_mb"`
	// LiveMB is the heap the latest collection found live, read after the
	// experiment's last run: what each cycle's mark phase walks.
	LiveMB float64 `json:"live_mb"`
}

// line is the "[… regenerated in …]" line printed under the experiment.
func (t expTiming) line() string {
	return fmt.Sprintf("  [%s regenerated in %.0fms; gc %.1f cycles %.1f MB; live %.1f MB]\n", t.Name, t.WallMS, t.GCCycles, t.AllocMB, t.LiveMB)
}

// gcCounters reads the collector's two running totals: completed cycles
// and bytes allocated.
type gcCounters struct{ cycles, bytes float64 }

func readGC() gcCounters {
	s := [2]rtmetrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/allocs:bytes"}}
	rtmetrics.Read(s[:])
	return gcCounters{float64(s[0].Value.Uint64()), float64(s[1].Value.Uint64())}
}

// liveMB reads the heap the latest collection marked live, in MB.
func liveMB() float64 {
	s := [1]rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
	rtmetrics.Read(s[:])
	return float64(s[0].Value.Uint64()) / 1e6
}

// benchReport is the top-level -json document.
type benchReport struct {
	Seed     int64 `json:"seed"`
	Samples  int   `json:"samples"`
	Parallel int   `json:"parallel"`
	// GOMAXPROCS and NumCPU qualify every recorded time: a pool's time
	// means nothing without knowing how many cores backed its workers.
	GOMAXPROCS  int         `json:"gomaxprocs"`
	NumCPU      int         `json:"num_cpu"`
	Experiments []expTiming `json:"experiments"`
	TotalWallMS float64     `json:"total_wall_ms"`
	// Causes is the structured per-cause breakdown (present when the
	// causes experiment ran): disruption percentiles and executed reset
	// actions per (cause, scheme), priced by the shared cost model the
	// policy optimizer uses.
	Causes []metrics.BreakdownRow `json:"causes,omitempty"`
	// Prototypes answers "did this run re-boot prototypes?": per shared
	// prototype family, how many full boots and how many restores served
	// the run's cells. Boots stay at or below the worker count per
	// prototype when instances are retained as designed. boot_ms and
	// snapshot_ms, summed over the workers, say what creating them cost.
	Prototypes []seed.ProtoFamilyStats `json:"prototypes"`
}

func main() { os.Exit(run()) }

// run is main behind an exit status, so the deferred profile writers run
// before the process exits.
func run() int {
	exp := flag.String("exp", "all", "experiment to run (all, table1..5, figure2/3/11a/11b/12/13, causes, coverage, learning, mobility)")
	samples := flag.Int("samples", 100, "replayed failure cases per class for the dataset-driven experiments")
	seedVal := flag.Int64("seed", 1, "simulation seed")
	parallel := flag.Int("parallel", 0, "scenario worker goroutines (0 = GOMAXPROCS, 1 = sequential)")
	reps := flag.Int("reps", 1, "run each experiment this many times and record the fastest run")
	jsonOut := flag.String("json", "", "write machine-readable results and timings to this file (- for stdout)")
	cdfOut := flag.String("cdf", "", "also write the Figure 2 CDFs as CSV to this file")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile taken at exit to this file")
	flag.Parse()
	if *samples < 1 {
		fmt.Fprintf(os.Stderr, "-samples %d: need at least 1 case per class\n", *samples)
		return 2
	}
	if *reps < 1 {
		fmt.Fprintf(os.Stderr, "-reps %d: need at least 1 run per experiment\n", *reps)
		return 2
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}()
	}

	pool := runner.New(*parallel)
	ds := seed.GenerateDataset(*seedVal)

	// Table 4, Figure 2, causes and coverage fold the grid's replay of the
	// dataset cells they count: the grid runs under -exp all and when one of
	// the four is named alone.
	all := *exp == "all"
	foldsGrid := map[string]bool{"figure2": true, "table4": true, "causes": true, "coverage": true}
	var grid seed.DatasetGrid
	var fig2 seed.Figure2Result
	var causes seed.CausesResult
	experiments := []experiment{
		{"table1", func(*runner.Pool) string { return ds.RenderTable1() }},
		{"table2", func(*runner.Pool) string { return table2() }},
		{"table3", func(*runner.Pool) string { return table3() }},
		{"grid", func(p *runner.Pool) string {
			grid = seed.ReplayDatasetGrid(p, ds, *samples, *seedVal)
			return ""
		}},
		{"figure2", func(*runner.Pool) string {
			fig2 = grid.Figure2()
			return fig2.Render()
		}},
		{"figure3", func(p *runner.Pool) string {
			return seed.ExperimentFigure3(p, max(8, *samples/10), *seedVal).Render()
		}},
		{"table4", func(*runner.Pool) string { return grid.Table4().Render() }},
		{"table5", func(p *runner.Pool) string { return seed.ExperimentTable5(p, 3, *seedVal).Render() }},
		{"figure11a", func(p *runner.Pool) string { return seed.ExperimentFigure11a(p, *seedVal).Render() }},
		{"figure11b", func(*runner.Pool) string { return seed.ExperimentFigure11b(*seedVal).Render() }},
		{"figure12", func(*runner.Pool) string { return seed.ExperimentFigure12(50, *seedVal).Render() }},
		{"figure13", func(p *runner.Pool) string { return seed.ExperimentFigure13(p, *seedVal).Render() }},
		{"causes", func(*runner.Pool) string {
			causes = grid.Causes()
			return causes.Render()
		}},
		{"coverage", func(*runner.Pool) string { return grid.Coverage().Render() }},
		{"learning", func(*runner.Pool) string { return seed.ExperimentLearning(6, 4, 50, *seedVal).Render() }},
		{"mobility", func(p *runner.Pool) string {
			return seed.ExperimentMobility(p, max(8, *samples/10), *seedVal).Render()
		}},
	}

	if !all {
		known := false
		var names []string
		for _, e := range experiments {
			if e.name != "grid" {
				known = known || e.name == *exp
				names = append(names, e.name)
			}
		}
		if !known {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (known: all %s)\n", *exp, strings.Join(names, " "))
			return 2
		}
	}

	report := benchReport{
		Seed: *seedVal, Samples: *samples,
		Parallel: pool.Workers(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU: runtime.NumCPU(),
	}
	// A timing line is followed by a blank line, owed until the next block of
	// text or the end of the run: the grid prints no text, so its timing line
	// joins the previous row's (or opens the run), and stdout without the
	// timing lines is what it would be without the grid.
	blank := ""
	for _, e := range experiments {
		if !all && *exp != e.name && !(e.name == "grid" && foldsGrid[*exp]) {
			continue
		}
		t := expTiming{Name: e.name}
		out := timeRuns(&t, *reps, func() string { return e.run(pool) })
		if e.name == "grid" {
			t.Cells = grid.Cells()
		}
		t.LiveMB = liveMB()
		if out != "" {
			fmt.Print(blank, out)
			blank = "\n"
		}
		fmt.Print(t.line())
		report.TotalWallMS += t.WallMS
		report.Experiments = append(report.Experiments, t)
	}
	fmt.Print(blank)

	status := 0
	if *cdfOut != "" && (*exp == "all" || *exp == "figure2") {
		if err := writeCDFCSV(*cdfOut, fig2); err != nil {
			fmt.Fprintf(os.Stderr, "cdf: %v\n", err)
			status = 1
		} else {
			fmt.Printf("[CDF points written to %s]\n", *cdfOut)
		}
	}
	report.Causes = causes.Rows
	report.Prototypes = seed.PrototypeStats()
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, report); err != nil {
			fmt.Fprintf(os.Stderr, "json: %v\n", err)
			return 1
		}
	}
	return status
}

func msSince(start time.Time) float64 {
	return float64(time.Since(start)) / float64(time.Millisecond)
}

// timeRuns runs fn reps times and records its fastest wall-clock time in
// t: experiments are deterministic, so every run produces the same output
// and the minimum is the least-noisy timing estimate.
func timeRuns(t *expTiming, reps int, fn func() string) string {
	var out string
	gc0 := readGC()
	for r := 0; r < reps; r++ {
		start := time.Now()
		o := fn()
		if ms := msSince(start); r == 0 || ms < t.WallMS {
			out, t.WallMS = o, ms
		}
	}
	gc := readGC()
	t.GCCycles = (gc.cycles - gc0.cycles) / float64(reps)
	t.AllocMB = (gc.bytes - gc0.bytes) / float64(reps) / 1e6
	t.Runs = reps
	return out
}

// writeJSON dumps the report ("-" selects stdout).
func writeJSON(path string, report benchReport) error {
	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(blob)
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

// writeCDFCSV dumps the Figure 2 curves as plane,seconds,fraction rows and
// returns the first error writing or closing the file.
func writeCDFCSV(path string, res seed.Figure2Result) error {
	var b strings.Builder
	b.WriteString("plane,seconds,fraction\n")
	for _, p := range res.Control {
		fmt.Fprintf(&b, "control,%.3f,%.4f\n", p.Seconds, p.Fraction)
	}
	for _, p := range res.Data {
		fmt.Fprintf(&b, "data,%.3f,%.4f\n", p.Seconds, p.Fraction)
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// table2 reproduces the qualitative solution comparison (static).
func table2() string {
	rows := [][]string{
		{"Solutions", "Detection&Diag", "Config recovery", "Non-config recovery", "User-action"},
		{"Modem-based", "device-side only", "not supported", "timer-based retry", "not supported"},
		{"OS-based", "device-side only", "not supported", "layer-by-layer retry", "not supported"},
		{"App-based", "device-side only", "not supported", "transport reconnect", "not supported"},
		{"Infra-based", "infra-side only", "infra-side updates", "wait for device retry", "notification"},
		{"SEED", "both sides", "both-side updates", "multi-tier reset", "notification"},
	}
	var b strings.Builder
	b.WriteString("Table 2: comparison of 5G failure diagnosis/handling solutions\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-12s %-18s %-20s %-22s %-14s\n", r[0], r[1], r[2], r[3], r[4])
	}
	return b.String()
}

// table3 prints the live decision table (the SEED applet's handling map).
func table3() string {
	rows := [][]string{
		{"Diagnosis Class", "SEED-U (no root)", "SEED-R (root)"},
		{"Control-plane causes", "A1 SIM profile reload", "B1 modem reset"},
		{"Control-plane causes w/ config", "A2+A1 config update & reload", "B2 reattach with update"},
		{"Data-plane causes", "A1 SIM profile reload", "B3 data-plane reset"},
		{"Data-plane causes w/ config", "A3 config update", "B3 data-plane modification"},
		{"Data delivery (app/OS report)", "A3 config update", "B3 reset / modification"},
	}
	var b strings.Builder
	b.WriteString("Table 3: failure handling decisions with diagnosis results\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-32s %-30s %-28s\n", r[0], r[1], r[2])
	}
	return b.String()
}
