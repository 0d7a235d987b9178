// Command seedsim watches one cell the paper's tables count: the i-th
// dataset case a failure name picks, under one mode, run as the same trial
// on the same derived seed as seedbench runs it, so the value it prints is
// the value the table row reads.
//
// Usage:
//
//	seedsim [-mode legacy|seed-u|seed-r] [-failure NAME] [-case I]
//	        [-seed S] [-trials N] [-parallel P]
//
// NAME is a scenario class (transient, state-desync, stale-config-device,
// stale-config-everywhere, user-action, silent-timeout), a delivery kind
// (tcp-block, udp-block, dns-outage, stalled-gateway) or a causes-table key
// (control/9, data/26); -case picks the I-th matching case in corpus order,
// and -seed is the root seed, as in seedbench -seed.
//
// A single cell prints its timeline — every state transition the layers
// announce, every NAS message and APDU, and every decision of the SIM applet
// and the infrastructure plugin, each with its virtual timestamp and layer —
// and then one line naming the case, its result, and the Table 4 and causes
// rows that count it. Watching changes no outcome.
//
// With -trials N > 1 it runs cases 0 … N-1 across -parallel workers (default
// GOMAXPROCS) and prints Table 4's statistics over them: recovered samples,
// unrecovered cells, median and 90th percentile. The summary is identical at
// any parallelism.
//
// An unknown name or mode, a -case out of range, -trials below 1 or beyond
// the number of matching cases, and -case with -trials > 1 exit 2.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	seed "github.com/seed5g/seed"
	"github.com/seed5g/seed/internal/metrics"
	"github.com/seed5g/seed/internal/runner"
)

func main() { os.Exit(run(os.Args[1:])) }

// run is main behind an exit status: 0, or 2 for a bad invocation. It
// registers its flags on the process-wide flag set.
func run(args []string) int {
	modeFlag := flag.String("mode", "seed-r", "device stack: legacy, seed-u, seed-r")
	failure := flag.String("failure", "state-desync", "scenario class, delivery kind or causes key (control/9) naming the cases to watch")
	caseIdx := flag.Int("case", 0, "watch the case-th matching case, in corpus order (single-cell mode)")
	seedVal := flag.Int64("seed", 1, "root seed, as in seedbench -seed: the dataset and every cell seed derive from it")
	trials := flag.Int("trials", 1, "run matching cases 0 … trials-1 and print their Table 4 statistics")
	parallel := flag.Int("parallel", 0, "worker goroutines for -trials (0 = GOMAXPROCS)")
	if flag.CommandLine.Parse(args) != nil {
		return 2
	}

	mode, ok := seed.ParseMode(*modeFlag)
	if !ok {
		return refuse(fmt.Errorf("unknown mode %q", *modeFlag))
	}
	if *trials < 1 {
		return refuse(fmt.Errorf("-trials %d: need at least 1 case", *trials))
	}
	ds := seed.GenerateDataset(*seedVal)
	if *trials > 1 {
		if *caseIdx != 0 {
			return refuse(fmt.Errorf("-case picks one cell: it cannot be combined with -trials > 1"))
		}
		// The last case exists, so every case before it does.
		if _, err := ds.WatchCell(*failure, *trials-1, mode, *seedVal, nil); err != nil {
			return refuse(fmt.Errorf("-trials %d: %w", *trials, err))
		}
		summarize(ds, *failure, mode, *seedVal, *trials, *parallel)
		return 0
	}
	w, err := ds.WatchCell(*failure, *caseIdx, mode, *seedVal, func(ev seed.TimelineEvent) {
		fmt.Printf("%11.3fs  %-11s  %s\n", ev.At.Seconds(), ev.Layer, ev.Text)
	})
	if err != nil {
		return refuse(err)
	}
	fmt.Println(caseLine(*failure, *caseIdx, w))
	return 0
}

// refuse reports a bad invocation and returns exit status 2.
func refuse(err error) int {
	fmt.Fprintln(os.Stderr, "seedsim:", err)
	return 2
}

// caseLine names the watched case, its result and the rows that count it.
func caseLine(failure string, i int, w seed.CountedCell) string {
	what, value := fmt.Sprintf("delivery case %d, %s", w.Delivery.ID, w.Delivery.Kind), "handling"
	if w.Plane != "delivery" {
		fc := w.Failure
		what, value = fmt.Sprintf("dataset case %d, %s plane, cause #%d %s, %s, heal %v",
			fc.ID, w.Plane, fc.CauseCode, fc.CauseName, fc.Scenario, fc.Heal.Round(time.Millisecond)), "disruption"
	}
	result := "not recovered"
	if w.Recovered {
		result = fmt.Sprintf("recovered, %s %.4fs", value, w.Value.Seconds())
	}
	var rows []string
	if w.Table4Row != "" {
		rows = append(rows, fmt.Sprintf("Table 4 %q", w.Table4Row))
	}
	if w.CausesRow != "" {
		rows = append(rows, fmt.Sprintf("causes %q", w.CausesRow))
	}
	counted := "counted by no Table 4 or causes row"
	if len(rows) > 0 {
		counted = fmt.Sprintf("counted by %s at -samples > %d", strings.Join(rows, " and "), w.Position)
	}
	return fmt.Sprintf("%s case %d under %s: %s, cell seed %d: %s; %s", failure, i, w.Mode, what, w.Seed, result, counted)
}

// summarize runs matching cases 0 … n-1 on the worker pool and prints the
// statistics Table 4's rows carry for them.
func summarize(ds *seed.Dataset, failure string, mode seed.Mode, rootSeed int64, n, parallel int) {
	cells := runner.Map(runner.New(parallel), n, func(i int) seed.CountedCell {
		w, _ := ds.WatchCell(failure, i, mode, rootSeed, nil)
		return w
	})
	series := metrics.NewSeries()
	unrecov := 0
	for _, w := range cells {
		if w.Recovered {
			series.Add(w.Value)
		} else {
			unrecov++
		}
	}
	fmt.Printf("%s cases 0-%d under %s, root seed %d: n %d  unrec %d  median %.4fs  p90 %.4fs\n",
		failure, n-1, mode, rootSeed, series.Len(), unrecov, series.Median().Seconds(), series.Percentile(90).Seconds())
}
