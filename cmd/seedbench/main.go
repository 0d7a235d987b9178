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
// bit-for-bit identical at any parallelism.
//
// Each piece of work is done once. Table 4, Figure 2, the per-cause
// breakdown and the coverage all read the same replayed cases, so a "grid"
// stage ahead of Figure 2 replays every dataset cell they count once (timed
// like an experiment, printed as a timing line only) and those four
// experiments fold it. Under -exp all the stage runs once for the four;
// naming one of them alone (-exp figure2) runs the stage and then it. And an
// experiment runs as often as its result can differ: with -parallel > 1 the
// experiments that fan cells over the pool also run sequentially, as often
// as they run on the pool, so the speedup against the recorded sequential
// baseline can be reported — and the two outputs are compared byte-for-byte
// as a live determinism check: a mismatch is reported on stderr and, once
// the run and its report are complete, the exit status is 1. The
// experiments that use no pool (the static tables, the one-kernel
// experiments figure11b, figure12 and learning, the folds of the grid) have
// no second lane to differ from: they run once at any -parallel and report
// a time, not a speedup.
//
// -json FILE writes machine-readable per-experiment results and
// wall-clock timings ("-" for stdout), plus the boot/restore counts of each
// prototype family (proto_boots/proto_restores). Each experiment's record,
// and its "[… regenerated in …]" line, also says what the collector did
// during one run of it, per lane (gc_cycles and alloc_mb), and how large the
// live heap was after it (live_mb); "runs" counts how often the experiment
// executed in this invocation and the grid stage's "cells" how many cells
// it replayed. -reps N runs each experiment N times per lane and nothing more:
// a pooled experiment with -parallel > 1 runs in N sequential/parallel
// pairs ("runs" 2N), its recorded wall times are per-lane medians and its
// speedup is the median of the paired baseline/parallel ratios, which
// removes scheduler and GC noise from the recorded speedups once N is 5 or
// more. At the default -reps 1 the one pair is the measurement, cold
// prototype boots included.
// -cpuprofile/-memprofile write pprof profiles of the whole run
// for `go tool pprof` (the profiling workflow in EXPERIMENTS.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	seed "github.com/seed5g/seed"
	"github.com/seed5g/seed/internal/metrics"
	"github.com/seed5g/seed/internal/runner"
)

// A row of the suite is one of three kinds, told apart by the type of its
// run function.
type (
	// pooled fans scenario cells over the pool it is handed and returns the
	// text it regenerated. With -parallel > 1 it is timed on both lanes and
	// the two texts must be equal.
	pooled func(p *runner.Pool) string
	// stage is a pooled run whose product is a value later rows fold, not
	// text: it returns a digest of that value, compared across the lanes as
	// a pooled row's text is and never printed, and the value's cell count.
	stage func(p *runner.Pool) (digest string, cells int)
	// poolless touches no pool — a formatter, an experiment on one kernel, a
	// fold of a stage's value — so no -parallel can change what it returns:
	// it runs on one lane.
	poolless func() string
)

// experiment is one row: its -exp name and its pooled, stage or poolless
// run function.
type experiment struct {
	name string
	run  any
}

// expTiming is one experiment's machine-readable record.
type expTiming struct {
	Name   string  `json:"name"`
	WallMS float64 `json:"wall_ms"`
	// Runs is how many times the experiment executed in this invocation:
	// -reps on one lane, -reps on each of two.
	Runs int `json:"runs"`
	// Cells is how many scenario cells a stage replayed.
	Cells int `json:"cells,omitempty"`
	// SequentialWallMS and Speedup are present for a pooled experiment when
	// -parallel > 1: the same experiment re-run with one worker as the
	// baseline.
	SequentialWallMS float64 `json:"sequential_wall_ms,omitempty"`
	Speedup          float64 `json:"speedup,omitempty"`
	// WinFraction is the fraction of paired reps in which the parallel
	// lane was at least as fast as its sequential baseline — a sign test:
	// ~0.5 means statistical parity, well below 0.5 means genuinely
	// slower. Present with Speedup when -reps > 1.
	WinFraction float64 `json:"win_fraction,omitempty"`
	// Deterministic reports that the parallel output matched the
	// sequential baseline byte-for-byte (always true when no baseline
	// was run).
	Deterministic bool `json:"deterministic"`
	// GCCycles and AllocMB say what the collector did during one timed run
	// of the experiment (means over the timed runs, runtime/metrics deltas
	// around them): the two lanes allocate the same, so a speedup short of
	// the worker count beside a high cycle count is the collector, not the
	// runner. The Sequential pair is the baseline lane's, present with
	// Speedup.
	GCCycles           float64 `json:"gc_cycles"`
	AllocMB            float64 `json:"alloc_mb"`
	SequentialGCCycles float64 `json:"sequential_gc_cycles,omitempty"`
	SequentialAllocMB  float64 `json:"sequential_alloc_mb,omitempty"`
	// LiveMB is the heap the latest collection found live, read after the
	// experiment's last run: what each cycle's mark phase walks.
	LiveMB float64 `json:"live_mb"`
}

// line is the "[… regenerated in …]" line printed under the experiment.
func (t expTiming) line(workers int) string {
	if t.Speedup == 0 {
		return fmt.Sprintf("  [%s regenerated in %.0fms; gc %.1f cycles %.1f MB; live %.1f MB]\n", t.Name, t.WallMS, t.GCCycles, t.AllocMB, t.LiveMB)
	}
	return fmt.Sprintf("  [%s regenerated in %.0fms; sequential %.0fms; speedup %.2fx @%d workers; gc %.1f cycles %.1f MB; sequential gc %.1f cycles %.1f MB; live %.1f MB]\n",
		t.Name, t.WallMS, t.SequentialWallMS, t.Speedup, workers, t.GCCycles, t.AllocMB, t.SequentialGCCycles, t.SequentialAllocMB, t.LiveMB)
}

// gcCounters reads the collector's two running totals: completed cycles
// and bytes allocated.
type gcCounters struct{ cycles, bytes float64 }

func readGC() gcCounters {
	s := [2]rtmetrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/allocs:bytes"}}
	rtmetrics.Read(s[:])
	return gcCounters{float64(s[0].Value.Uint64()), float64(s[1].Value.Uint64())}
}

// add accumulates the counters' movement since start into g.
func (g *gcCounters) add(start gcCounters) {
	now := readGC()
	g.cycles += now.cycles - start.cycles
	g.bytes += now.bytes - start.bytes
}

// perRun returns g's totals as (cycles, MB) per run.
func (g gcCounters) perRun(runs int) (float64, float64) {
	return g.cycles / float64(runs), g.bytes / float64(runs) / 1e6
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
	// GOMAXPROCS and NumCPU qualify every recorded speedup: a scaling
	// number means nothing without knowing how many cores backed it, and
	// -parallel beyond NumCPU measures goroutine scheduling, not cores.
	GOMAXPROCS            int         `json:"gomaxprocs"`
	NumCPU                int         `json:"num_cpu"`
	Experiments           []expTiming `json:"experiments"`
	TotalWallMS           float64     `json:"total_wall_ms"`
	TotalSequentialWallMS float64     `json:"total_sequential_wall_ms,omitempty"`
	TotalSpeedup          float64     `json:"total_speedup,omitempty"`
	// Causes is the structured per-cause breakdown (present when the
	// causes experiment ran): disruption percentiles and executed reset
	// actions per (cause, scheme), priced by the shared cost model the
	// policy optimizer uses.
	Causes []metrics.BreakdownRow `json:"causes,omitempty"`
	// Prototypes answers "did this run re-boot prototypes?": per shared
	// prototype family, how many full boots and how many restores served
	// the run's cells. Boots stay at or below the worker count per
	// prototype when instances are retained as designed.
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
	reps := flag.Int("reps", 1, "time each experiment this many times (paired medians with -parallel > 1, best run otherwise)")
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
		*reps = 1
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

	// The two lanes' pools: a pooled experiment takes the pool it fans its
	// cells across, so timing a lane is calling it with that lane's pool.
	seq, par := runner.New(1), runner.New(*parallel)
	workers := par.Workers()
	if workers > runtime.NumCPU() {
		fmt.Fprintf(os.Stderr, "WARNING: -parallel %d exceeds the %d available CPUs; "+
			"the pooled experiments' speedups will measure goroutine scheduling, not cores\n", workers, runtime.NumCPU())
	}

	ds := seed.GenerateDataset(*seedVal)

	// Table 4, Figure 2, causes and coverage fold the grid stage's replay of
	// the dataset cells they count: the stage runs under -exp all and when
	// one of the four is named alone.
	all := *exp == "all"
	foldsGrid := map[string]bool{"figure2": true, "table4": true, "causes": true, "coverage": true}
	var grid seed.DatasetGrid
	var fig2 seed.Figure2Result
	var causes seed.CausesResult
	experiments := []experiment{
		{"table1", poolless(ds.RenderTable1)},
		{"table2", poolless(table2)},
		{"table3", poolless(table3)},
		{"grid", stage(func(p *runner.Pool) (string, int) {
			grid = seed.ReplayDatasetGrid(p, ds, *samples, *seedVal)
			return grid.Digest(), grid.Cells()
		})},
		{"figure2", poolless(func() string {
			fig2 = grid.Figure2()
			return fig2.Render()
		})},
		{"figure3", pooled(func(p *runner.Pool) string {
			return seed.ExperimentFigure3(p, max(8, *samples/10), *seedVal).Render()
		})},
		{"table4", poolless(func() string { return grid.Table4().Render() })},
		{"table5", pooled(func(p *runner.Pool) string { return seed.ExperimentTable5(p, 3, *seedVal).Render() })},
		{"figure11a", pooled(func(p *runner.Pool) string { return seed.ExperimentFigure11a(p, *seedVal).Render() })},
		{"figure11b", poolless(func() string { return seed.ExperimentFigure11b(*seedVal).Render() })},
		{"figure12", poolless(func() string { return seed.ExperimentFigure12(50, *seedVal).Render() })},
		{"figure13", pooled(func(p *runner.Pool) string { return seed.ExperimentFigure13(p, *seedVal).Render() })},
		{"causes", poolless(func() string {
			causes = grid.Causes()
			return causes.Render()
		})},
		{"coverage", poolless(func() string { return grid.Coverage().Render() })},
		{"learning", poolless(func() string { return seed.ExperimentLearning(6, 4, 50, *seedVal).Render() })},
		{"mobility", pooled(func(p *runner.Pool) string {
			return seed.ExperimentMobility(p, max(8, *samples/10), *seedVal).Render()
		})},
	}

	if !all {
		known := false
		var names []string
		for _, e := range experiments {
			if _, isStage := e.run.(stage); !isStage {
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
		Parallel: workers, GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU: runtime.NumCPU(),
	}
	// timePooled times a run that takes a pool: on the one lane there is at
	// -parallel 1, on both otherwise, comparing what they returned.
	timePooled := func(t *expTiming, run pooled) string {
		if workers == 1 {
			return timeOnce(t, *reps, func() string { return run(par) })
		}
		out, baseline := timeLanes(t, *reps, seq, par, run)
		if t.Deterministic = out == baseline; !t.Deterministic {
			fmt.Fprintf(os.Stderr, "WARNING: %s parallel output differs from the sequential baseline\n", t.Name)
		}
		return out
	}
	deterministic := true
	// A timing line is followed by a blank line, owed until the next block of
	// text or the end of the run: a stage prints no text, so its timing line
	// joins the previous row's (or opens the run), and stdout without the
	// timing lines is what it would be without the stage.
	blank := ""
	for _, e := range experiments {
		if !all && *exp != e.name && !(e.name == "grid" && foldsGrid[*exp]) {
			continue
		}
		t := expTiming{Name: e.name, Deterministic: true}
		var out string
		switch run := e.run.(type) {
		case poolless:
			out = timeOnce(&t, *reps, run)
		case pooled:
			out = timePooled(&t, run)
		case stage:
			timePooled(&t, func(p *runner.Pool) (digest string) {
				digest, t.Cells = run(p)
				return digest
			})
		default:
			panic(fmt.Sprintf("seedbench: experiment %s has a %T for a run function", e.name, run))
		}
		t.LiveMB = liveMB()
		if out != "" {
			fmt.Print(blank, out)
			blank = "\n"
		}
		fmt.Print(t.line(workers))
		deterministic = deterministic && t.Deterministic

		report.Experiments = append(report.Experiments, t)
	}
	fmt.Print(blank)
	// The total speedup combines the per-experiment robust estimators,
	// weighted by each experiment's share of the sequential wall time: the
	// implied parallel total is what the robust per-experiment ratios
	// predict, which keeps the total consistent with them. A one-lane row
	// costs a sequential suite what it costs this one, so it enters both
	// totals at its one wall time; without a two-lane row there is no
	// sequential total to report.
	sequential, implied, twoLanes := 0.0, 0.0, false
	for _, t := range report.Experiments {
		report.TotalWallMS += t.WallMS
		if t.Speedup > 0 {
			twoLanes = true
			sequential += t.SequentialWallMS
			implied += t.SequentialWallMS / t.Speedup
		} else {
			sequential += t.WallMS
			implied += t.WallMS
		}
	}
	if twoLanes {
		report.TotalSequentialWallMS = sequential
		report.TotalSpeedup = sequential / implied
		fmt.Printf("total wall-clock %.0fms vs sequential %.0fms: %.2fx speedup @%d workers\n",
			report.TotalWallMS, report.TotalSequentialWallMS, report.TotalSpeedup, workers)
	}

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
	if !deterministic {
		return 1
	}
	return status
}

func msSince(start time.Time) float64 {
	return float64(time.Since(start)) / float64(time.Millisecond)
}

// median returns the middle value of xs (mean of the middle two for even
// lengths). xs is sorted in place.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// timeOnce runs fn reps times on one lane and records its fastest
// wall-clock time in t: experiments are deterministic, so every rep produces
// the same output and the minimum is the least-noisy timing estimate.
func timeOnce(t *expTiming, reps int, fn func() string) string {
	var out string
	var gc gcCounters
	gc0 := readGC()
	for r := 0; r < reps; r++ {
		start := time.Now()
		o := fn()
		if ms := msSince(start); r == 0 || ms < t.WallMS {
			out, t.WallMS = o, ms
		}
	}
	gc.add(gc0)
	t.GCCycles, t.AllocMB = gc.perRun(reps)
	t.Runs = reps
	return out
}

// timeLanes times run against its recorded sequential baseline: the same
// experiment on one worker. Each rep is one baseline/parallel pair, run
// back-to-back, so slow drift in the machine's performance (CPU contention,
// thermal state, cgroup throttling) hits both lanes equally, and the order
// within the pair alternates per rep (sequential first on even reps), so any
// penalty that falls on whichever lane runs second cancels as well. The
// recorded speedup is the geometric mean of the two order-specific medians
// of the paired ratios: pairing cancels drift, the medians reject reps a GC
// cycle or preemption lands in, and the geometric mean cancels the order
// bias. Every run is a timed sample, so run executes exactly reps times per
// lane: at -reps 1 the one pair is the measurement, prototype boots
// included, and a speedup worth quoting wants -reps 5 or more. It returns
// the last output of each lane.
func timeLanes(t *expTiming, reps int, seq, par *runner.Pool, run pooled) (out, baseline string) {
	seqMS := make([]float64, reps)
	parMS := make([]float64, reps)
	var seqGC, parGC gcCounters
	for r := 0; r < reps; r++ {
		for lane := 0; lane < 2; lane++ {
			// Each timed lane starts from a freshly collected heap,
			// so GC cycles triggered by the previous lane's garbage
			// can't land in (and bill to) this lane's measurement.
			p, dst, ms, gc := par, &out, parMS, &parGC
			if (lane == 0) == (r%2 == 0) {
				p, dst, ms, gc = seq, &baseline, seqMS, &seqGC
			}
			runtime.GC()
			gc0, start := readGC(), time.Now()
			*dst = run(p)
			ms[r] = msSince(start)
			gc.add(gc0)
		}
	}
	t.Runs = 2 * reps
	t.GCCycles, t.AllocMB = parGC.perRun(reps)
	t.SequentialGCCycles, t.SequentialAllocMB = seqGC.perRun(reps)
	var seqFirst, parFirst []float64
	wins := 0
	for r := 0; r < reps; r++ {
		ratio := seqMS[r] / parMS[r]
		if ratio >= 1 {
			wins++
		}
		if r%2 == 0 {
			seqFirst = append(seqFirst, ratio)
		} else {
			parFirst = append(parFirst, ratio)
		}
	}
	if reps > 1 {
		t.WinFraction = float64(wins) / float64(reps)
	}
	t.SequentialWallMS = median(seqMS)
	t.WallMS = median(parMS)
	t.Speedup = median(seqFirst)
	if len(parFirst) > 0 {
		t.Speedup = math.Sqrt(median(seqFirst) * median(parFirst))
	}
	return out, baseline
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
