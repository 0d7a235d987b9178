// Command seedbench regenerates the tables and figures of the SEED paper's
// evaluation section (§7) on the emulated testbed, prints them as text and
// times them.
//
// Usage:
//
//	seedbench [-exp all|table1|…|mobility] [-samples N] [-seed S]
//	          [-parallel P] [-reps N] [-json FILE] [-cdf FILE]
//	          [-cpuprofile FILE] [-memprofile FILE]
//
// The evaluation is seed.Evaluation: its steps, their order and their run
// parameters are defined there, and -exp names one (-h lists them; naming
// a fold of the dataset grid runs the grid first). The selected steps run
// side by side, and their scenario cells fan out, on one budget of
// -parallel workers in total (default GOMAXPROCS), with identical results
// at any count (seed.Evaluation.RunAll). Each step's text and its
// "[… regenerated in …]" line print in the steps' order once it and every
// step before it are done. The selection runs -reps times; a step's line
// and its -json record ("-" for stdout) carry its fastest span's wall time
// and what the collector did (expTiming). -json adds the elapsed wall of
// the fastest repetition, the per-cause breakdown and each prototype
// family's boots and restores (benchReport).
// -cdf writes Figure 2's curves as CSV, so it needs figure2 among the
// steps. -cpuprofile and -memprofile write pprof profiles of the whole run
// (the profiling workflow in EXPERIMENTS.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	seed "github.com/seed5g/seed"
	"github.com/seed5g/seed/internal/metrics"
	"github.com/seed5g/seed/internal/runner"
)

// expTiming is one experiment's machine-readable record.
type expTiming struct {
	Name string `json:"name"`
	// WallMS is the experiment's fastest span, start to end of its own
	// run. At -parallel > 1 the experiments run side by side, so spans
	// overlap and their sum exceeds the run's elapsed wall.
	WallMS float64 `json:"wall_ms"`
	// Runs is how many times the experiment executed in this invocation:
	// -reps.
	Runs int `json:"runs"`
	// Cells is how many scenario cells the grid replayed.
	Cells int `json:"cells,omitempty"`
	// GCCycles and AllocMB say what the collector did during the
	// experiment's span (means over the runs, runtime/metrics deltas
	// around it, process-wide, so overlapping spans share them): a time
	// short of what the worker count promises beside a high cycle count is
	// the collector, not the runner.
	GCCycles float64 `json:"gc_cycles"`
	AllocMB  float64 `json:"alloc_mb"`
	// LiveMB is the heap the latest collection found live, read when the
	// experiment's last run is reported: what each cycle's mark phase
	// walks.
	LiveMB float64 `json:"live_mb"`
}

// line is the "[… regenerated in …]" line printed under the experiment.
func (t expTiming) line() string {
	return fmt.Sprintf("  [%s regenerated in %.0fms; gc %.1f cycles %.1f MB; live %.1f MB]\n", t.Name, t.WallMS, t.GCCycles, t.AllocMB, t.LiveMB)
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
	// TotalWallMS is the elapsed wall of the selection, its fastest
	// repetition, printing included.
	TotalWallMS float64 `json:"total_wall_ms"`
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
	var ev seed.Evaluation
	exp := flag.String("exp", "all", "experiment to run ("+strings.Join(ev.Names(), ", ")+")")
	samples := flag.Int("samples", 100, "replayed failure cases per class for the dataset-driven experiments")
	seedVal := flag.Int64("seed", 1, "simulation seed")
	parallel := flag.Int("parallel", 0, "scenario worker goroutines (0 = GOMAXPROCS, 1 = sequential)")
	reps := flag.Int("reps", 1, "run the selection this many times and record each experiment's fastest run")
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
	ev.Seed, ev.Samples = *seedVal, *samples
	steps, err := ev.Select(*exp)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if *cdfOut != "" && !slices.Contains(steps, "figure2") {
		fmt.Fprintf(os.Stderr, "-cdf writes Figure 2's CDFs, and -exp %s does not run figure2\n", *exp)
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
	report := benchReport{
		Seed: ev.Seed, Samples: ev.Samples,
		Parallel: pool.Workers(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU: runtime.NumCPU(),
	}
	// A timing line is followed by a blank line, owed until the next block of
	// text or the end of the run: the grid prints no text, so its timing line
	// joins the previous row's (or opens the run), and stdout without the
	// timing lines is what it would be without the grid.
	blank := ""
	report.Experiments = make([]expTiming, len(steps))
	for r := 0; r < *reps; r++ {
		i := 0
		start := time.Now()
		ev.RunAll(pool, steps, func(run seed.StepRun) {
			t := &report.Experiments[i]
			i++
			if ms := millis(run.End.Sub(run.Start)); r == 0 || ms < t.WallMS {
				t.WallMS = ms
			}
			t.GCCycles += float64(run.GCCycles) / float64(*reps)
			t.AllocMB += float64(run.AllocBytes) / float64(*reps) / 1e6
			if r < *reps-1 {
				return
			}
			t.Name, t.Runs, t.LiveMB = run.Name, *reps, liveMB()
			if run.Name == "grid" {
				t.Cells = ev.Grid.Cells() // done, and no later step writes it
			}
			if run.Text != "" {
				fmt.Print(blank, run.Text)
				blank = "\n"
			}
			fmt.Print(t.line())
		})
		if ms := millis(time.Since(start)); r == 0 || ms < report.TotalWallMS {
			report.TotalWallMS = ms
		}
	}
	fmt.Print(blank)

	status := 0
	if *cdfOut != "" {
		if err := writeCDFCSV(*cdfOut, ev.Figure2); err != nil {
			fmt.Fprintf(os.Stderr, "cdf: %v\n", err)
			status = 1
		} else {
			fmt.Printf("[CDF points written to %s]\n", *cdfOut)
		}
	}
	report.Causes = ev.Causes.Rows
	report.Prototypes = seed.PrototypeStats()
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, report); err != nil {
			fmt.Fprintf(os.Stderr, "json: %v\n", err)
			return 1
		}
	}
	return status
}

func millis(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
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
