package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	seed "github.com/seed5g/seed"
)

// seedbench calls run as the command line would: run registers its flags on
// the process-wide flag set, so each call gets a new one. It returns the
// exit status and what the run printed on stdout.
func seedbench(t *testing.T, args ...string) (int, string) {
	t.Helper()
	out, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	stdout, osArgs := os.Stdout, os.Args
	os.Stdout, os.Args = out, append([]string{"seedbench"}, args...)
	flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	status := run()
	os.Stdout, os.Args = stdout, osArgs
	printed, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return status, string(printed)
}

func TestRejectsSamplesBelowOne(t *testing.T) {
	if got, _ := seedbench(t, "-exp", "table4", "-samples", "0"); got != 2 {
		t.Fatalf("seedbench -samples 0 exited %d, want 2", got)
	}
}

// timingLines is what the benchmark's suite workload strips before it
// digests stdout (benchmark/adapter.go).
var timingLines = regexp.MustCompile(`(?m)^(\s*\[\S+ regenerated in .*\]|total wall-clock .*)\n`)

// timingLineName captures the experiment a "[… regenerated in …]" line is about.
var timingLineName = regexp.MustCompile(`^\s*\[(\S+) regenerated`)

// oneLane lists the -exp all rows that use no pool: the static tables, the
// one-kernel experiments and the three pure folds of the grid.
var oneLane = map[string]bool{
	"table1": true, "table2": true, "table3": true, "figure11b": true, "figure12": true, "learning": true,
	"figure2": true, "causes": true, "coverage": true,
}

// -exp all does each piece of work once. At -parallel 1 every management
// cell is replayed once (238 bare/cold restores at seed 1, 30 samples: the
// grid's 180, mobility's 48, ten for Figures 11a, 11b, 12 and 13; four
// experiments each replaying their own cells made it 514). At -parallel 2 a
// pool-less row runs once and reports no speedup, a pooled row has both
// lanes, the totals count a one-lane row on both sides, and stdout without
// its timing lines is the -parallel 1 run's.
func TestAllRunsEachPieceOnce(t *testing.T) {
	restores := func() int {
		n := 0
		for _, f := range seed.PrototypeStats() {
			if f.Family == "bare" || f.Family == "cold" {
				n += f.Restores
			}
		}
		return n
	}
	before := restores()
	status, one := seedbench(t, "-exp", "all", "-samples", "30", "-seed", "1", "-parallel", "1")
	if status != 0 {
		t.Fatalf("-parallel 1 exited %d", status)
	}
	if got := restores() - before; got != 238 {
		t.Errorf("-exp all -samples 30 -seed 1 restored %d bare/cold prototypes, want 238", got)
	}

	path := filepath.Join(t.TempDir(), "report.json")
	status, two := seedbench(t, "-exp", "all", "-samples", "30", "-seed", "1", "-parallel", "2", "-json", path)
	if status != 0 {
		t.Fatalf("-parallel 2 exited %d", status)
	}
	if a, b := timingLines.ReplaceAllString(one, ""), timingLines.ReplaceAllString(two, ""); a != b {
		t.Errorf("stdout without timing lines differs between -parallel 1 and 2:\n%s\n-parallel 2:\n%s", a, b)
	}
	for _, line := range strings.Split(two, "\n") {
		if m := timingLineName.FindStringSubmatch(line); m != nil && oneLane[m[1]] == strings.Contains(line, "speedup") {
			t.Errorf("pool-less %v, timing line %q", oneLane[m[1]], line)
		}
	}

	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var report struct {
		Experiments           []map[string]any `json:"experiments"`
		TotalWallMS           float64          `json:"total_wall_ms"`
		TotalSequentialWallMS float64          `json:"total_sequential_wall_ms"`
		TotalSpeedup          float64          `json:"total_speedup"`
	}
	if err := json.Unmarshal(blob, &report); err != nil {
		t.Fatal(err)
	}
	if len(report.Experiments) != 16 {
		t.Fatalf("%d experiment records, want the 15 experiments and the grid stage", len(report.Experiments))
	}
	wall, sequential, implied := 0.0, 0.0, 0.0
	for _, e := range report.Experiments {
		name := e["name"].(string)
		_, paired := e["speedup"]
		if _, has := e["sequential_wall_ms"]; has != paired {
			t.Errorf("%s: speedup present %v, sequential_wall_ms present %v", name, paired, has)
		}
		if _, has := e["win_fraction"]; has {
			t.Errorf("%s: win_fraction without -reps", name)
		}
		runs, ms := e["runs"].(float64), e["wall_ms"].(float64)
		switch {
		case oneLane[name] && (paired || runs != 1):
			t.Errorf("pool-less %s: runs %v, speedup present %v; want one run and no second lane", name, runs, paired)
		case !oneLane[name] && (!paired || runs < 3):
			t.Errorf("pooled %s: runs %v, speedup present %v; want a calibration run and both lanes", name, runs, paired)
		}
		if cells, has := e["cells"]; has != (name == "grid") || has && cells.(float64) != 180 {
			t.Errorf("%s: cells %v", name, cells)
		}
		wall += ms
		if paired {
			sequential += e["sequential_wall_ms"].(float64)
			implied += e["sequential_wall_ms"].(float64) / e["speedup"].(float64)
		} else {
			sequential += ms
			implied += ms
		}
	}
	for _, c := range []struct {
		key       string
		got, want float64
	}{
		{"total_wall_ms", report.TotalWallMS, wall},
		{"total_sequential_wall_ms", report.TotalSequentialWallMS, sequential},
		{"total_speedup", report.TotalSpeedup, sequential / implied},
	} {
		if d := c.got/c.want - 1; d < -1e-9 || d > 1e-9 {
			t.Errorf("%s = %v, want %v: a one-lane row counts at its wall time on both sides", c.key, c.got, c.want)
		}
	}
}
