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
// bit-for-bit identical at any parallelism. With -parallel > 1 each
// experiment also runs once sequentially so the per-experiment speedup
// against the recorded sequential baseline can be reported — and the two
// outputs are compared byte-for-byte as a live determinism check: a
// mismatch is reported on stderr and, once the run and its report are
// complete, the exit status is 1.
//
// -json FILE writes machine-readable per-experiment results and
// wall-clock timings ("-" for stdout), the format the BENCH_*.json perf
// trajectory consumes, plus the boot/restore counts of each prototype
// family (proto_boots/proto_restores). Each experiment's record, and its
// "[… regenerated in …]" line, also says what the collector did during one
// run of it, per lane: gc_cycles and alloc_mb. -reps N times each experiment N
// times; with -parallel > 1 the recorded wall times are per-lane medians
// and the speedup is the median of per-rep paired baseline/parallel
// ratios, which removes scheduler and GC noise from the recorded speedups.
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

// expTiming is one experiment's machine-readable record.
type expTiming struct {
	Name   string  `json:"name"`
	WallMS float64 `json:"wall_ms"`
	// SequentialWallMS and Speedup are present when -parallel > 1: the
	// same experiment re-run with one worker as the baseline.
	SequentialWallMS float64 `json:"sequential_wall_ms,omitempty"`
	Speedup          float64 `json:"speedup,omitempty"`
	// WinFraction is the fraction of paired reps in which the parallel
	// lane was at least as fast as its sequential baseline — a sign test:
	// ~0.5 means statistical parity, well below 0.5 means genuinely
	// slower. Present when -parallel > 1 and -reps > 1.
	WinFraction float64 `json:"win_fraction,omitempty"`
	// Deterministic reports that the parallel output matched the
	// sequential baseline byte-for-byte (always true when no baseline
	// was run).
	Deterministic bool `json:"deterministic"`
	// GCCycles and AllocMB say what the collector did during one timed run
	// of the experiment (means over the timed runs, runtime/metrics deltas
	// around them): the two lanes allocate the same, so a speedup short of
	// the worker count beside a high cycle count is the collector, not the
	// runner. The Sequential pair is the baseline lane's, present when
	// -parallel > 1.
	GCCycles           float64 `json:"gc_cycles"`
	AllocMB            float64 `json:"alloc_mb"`
	SequentialGCCycles float64 `json:"sequential_gc_cycles,omitempty"`
	SequentialAllocMB  float64 `json:"sequential_alloc_mb,omitempty"`
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

	// The two lanes' pools: every experiment takes the pool it fans its
	// cells across, so timing a lane is calling e.run with that lane's pool.
	seq, par := runner.New(1), runner.New(*parallel)
	workers := par.Workers()
	if workers > runtime.NumCPU() {
		fmt.Fprintf(os.Stderr, "WARNING: -parallel %d exceeds the %d available CPUs; "+
			"speedups will measure goroutine scheduling, not cores\n", workers, runtime.NumCPU())
	}

	ds := seed.GenerateDataset(*seedVal)

	var fig2 seed.Figure2Result
	var causes seed.CausesResult
	experiments := []struct {
		name string
		run  func(p *runner.Pool) string
	}{
		{"table1", func(*runner.Pool) string { return ds.RenderTable1() }},
		{"table2", func(*runner.Pool) string { return table2() }},
		{"table3", func(*runner.Pool) string { return table3() }},
		{"figure2", func(p *runner.Pool) string {
			fig2 = seed.ExperimentFigure2(p, ds, *samples, *seedVal)
			return fig2.Render()
		}},
		{"figure3", func(p *runner.Pool) string {
			return seed.ExperimentFigure3(p, max(8, *samples/10), *seedVal).Render()
		}},
		{"table4", func(p *runner.Pool) string { return seed.ExperimentTable4(p, ds, *samples, *seedVal).Render() }},
		{"table5", func(p *runner.Pool) string { return seed.ExperimentTable5(p, 3, *seedVal).Render() }},
		{"figure11a", func(p *runner.Pool) string { return seed.ExperimentFigure11a(p, *seedVal).Render() }},
		{"figure11b", func(*runner.Pool) string { return seed.ExperimentFigure11b(*seedVal).Render() }},
		{"figure12", func(*runner.Pool) string { return seed.ExperimentFigure12(50, *seedVal).Render() }},
		{"figure13", func(p *runner.Pool) string { return seed.ExperimentFigure13(p, *seedVal).Render() }},
		{"causes", func(p *runner.Pool) string {
			causes = seed.ExperimentCauses(p, ds, *samples, *seedVal)
			return causes.Render()
		}},
		{"coverage", func(p *runner.Pool) string { return seed.ExperimentCoverage(p, ds, *samples, *seedVal).Render() }},
		{"learning", func(*runner.Pool) string { return seed.ExperimentLearning(6, 4, 50, *seedVal).Render() }},
		{"mobility", func(p *runner.Pool) string {
			return seed.ExperimentMobility(p, max(8, *samples/10), *seedVal).Render()
		}},
	}

	if *exp != "all" {
		known := false
		for _, e := range experiments {
			if e.name == *exp {
				known = true
			}
		}
		if !known {
			var names []string
			for _, e := range experiments {
				names = append(names, e.name)
			}
			fmt.Fprintf(os.Stderr, "unknown experiment %q (known: all %s)\n", *exp, strings.Join(names, " "))
			return 2
		}
	}

	report := benchReport{
		Seed: *seedVal, Samples: *samples,
		Parallel: workers, GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU: runtime.NumCPU(),
	}
	deterministic := true
	for _, e := range experiments {
		if *exp != "all" && *exp != e.name {
			continue
		}
		t := expTiming{Name: e.name, Deterministic: true}

		var baseline, out string
		if workers > 1 {
			// Recorded sequential baseline: same experiment, one worker.
			// Each rep times a baseline/parallel pair back-to-back, so slow
			// drift in the machine's performance (CPU contention, thermal
			// state, cgroup throttling) hits both lanes equally, and the
			// order within the pair alternates per rep, so any penalty that
			// falls on whichever lane runs second cancels as well. The
			// recorded speedup is the geometric mean of the two
			// order-specific medians of the paired ratios: pairing cancels
			// drift, the medians reject reps a GC cycle or preemption lands
			// in, and the geometric mean cancels the order bias.
			// Sub-millisecond experiments are unmeasurable one run at a
			// time (clock granularity and scheduler jitter dominate), so
			// each timed sample loops the experiment often enough to last
			// ~5 ms, the way testing.B calibrates b.N.
			inner := 1
			{
				start := time.Now()
				baseline = e.run(seq)
				if est := msSince(start); est < 5 {
					inner = int(5/est) + 1
					if inner > 10000 {
						inner = 10000
					}
				}
			}
			seqMS := make([]float64, *reps)
			parMS := make([]float64, *reps)
			var seqGC, parGC gcCounters
			for r := 0; r < *reps; r++ {
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
					for n := 0; n < inner; n++ {
						*dst = e.run(p)
					}
					ms[r] = msSince(start) / float64(inner)
					gc.add(gc0)
				}
			}
			t.GCCycles, t.AllocMB = parGC.perRun(*reps * inner)
			t.SequentialGCCycles, t.SequentialAllocMB = seqGC.perRun(*reps * inner)
			var seqFirst, parFirst []float64
			wins := 0
			for r := 0; r < *reps; r++ {
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
			if *reps > 1 {
				t.WinFraction = float64(wins) / float64(*reps)
			}
			t.SequentialWallMS = median(seqMS)
			t.WallMS = median(parMS)
			t.Speedup = median(seqFirst)
			if len(parFirst) > 0 {
				t.Speedup = math.Sqrt(median(seqFirst) * median(parFirst))
			}
		} else {
			var gc gcCounters
			gc0 := readGC()
			out, t.WallMS = bestOf(*reps, func() string { return e.run(par) })
			gc.add(gc0)
			t.GCCycles, t.AllocMB = gc.perRun(*reps)
		}

		fmt.Print(out)
		if workers > 1 {
			t.Deterministic = out == baseline
			fmt.Printf("  [%s regenerated in %.0fms; sequential %.0fms; speedup %.2fx @%d workers; gc %.1f cycles %.1f MB; sequential gc %.1f cycles %.1f MB]\n",
				e.name, t.WallMS, t.SequentialWallMS, t.Speedup, workers, t.GCCycles, t.AllocMB, t.SequentialGCCycles, t.SequentialAllocMB)
			if !t.Deterministic {
				deterministic = false
				fmt.Fprintf(os.Stderr, "WARNING: %s parallel output differs from the sequential baseline\n", e.name)
			}
		} else {
			fmt.Printf("  [%s regenerated in %.0fms; gc %.1f cycles %.1f MB]\n", e.name, t.WallMS, t.GCCycles, t.AllocMB)
		}
		fmt.Println()

		report.Experiments = append(report.Experiments, t)
		report.TotalWallMS += t.WallMS
		report.TotalSequentialWallMS += t.SequentialWallMS
	}
	if report.TotalWallMS > 0 && report.TotalSequentialWallMS > 0 {
		// The total speedup combines the per-experiment robust estimators,
		// weighted by each experiment's share of the sequential wall time:
		// the implied parallel total is what the robust per-experiment
		// ratios predict, which keeps the total consistent with them.
		implied := 0.0
		for _, t := range report.Experiments {
			if t.Speedup > 0 {
				implied += t.SequentialWallMS / t.Speedup
			} else {
				implied += t.WallMS
			}
		}
		report.TotalSpeedup = report.TotalSequentialWallMS / implied
		fmt.Printf("total wall-clock %.0fms vs sequential %.0fms: %.2fx speedup @%d workers\n",
			report.TotalWallMS, report.TotalSequentialWallMS, report.TotalSpeedup, workers)
	}

	if *cdfOut != "" && (*exp == "all" || *exp == "figure2") {
		if err := writeCDFCSV(*cdfOut, fig2); err != nil {
			fmt.Fprintf(os.Stderr, "cdf: %v\n", err)
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
	return 0
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

// bestOf runs fn reps times and returns its output with the fastest
// wall-clock time. Experiments are deterministic, so every rep produces
// the same output and the minimum is the least-noisy timing estimate.
func bestOf(reps int, fn func() string) (string, float64) {
	var out string
	var best float64
	for r := 0; r < reps; r++ {
		start := time.Now()
		o := fn()
		ms := msSince(start)
		if r == 0 || ms < best {
			out, best = o, ms
		}
	}
	return out, best
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

// writeCDFCSV dumps the Figure 2 curves as plane,seconds,fraction rows.
func writeCDFCSV(path string, res seed.Figure2Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintln(f, "plane,seconds,fraction")
	for _, p := range res.Control {
		fmt.Fprintf(f, "control,%.3f,%.4f\n", p.Seconds, p.Fraction)
	}
	for _, p := range res.Data {
		fmt.Fprintf(f, "data,%.3f,%.4f\n", p.Seconds, p.Fraction)
	}
	return nil
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
