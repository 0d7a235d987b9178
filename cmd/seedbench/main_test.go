package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	seed "github.com/seed5g/seed"
	"github.com/seed5g/seed/internal/runner"
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
// one-kernel experiments and the four folds of the grid.
var oneLane = map[string]bool{
	"table1": true, "table2": true, "table3": true, "figure11b": true, "figure12": true, "learning": true,
	"figure2": true, "table4": true, "causes": true, "coverage": true,
}

// A -cdf file that cannot be written fails the run, as a -json one does.
func TestCDFWriteErrorFails(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full:", err)
	}
	if got, _ := seedbench(t, "-exp", "figure2", "-samples", "5", "-cdf", "/dev/full"); got == 0 {
		t.Fatal("seedbench -cdf /dev/full exited 0")
	}
}

// Naming one fold alone runs the grid stage and then the fold, and prints,
// timing lines aside, the block -exp all prints for it.
func TestFoldAloneRunsGrid(t *testing.T) {
	_, all := seedbench(t, "-exp", "all", "-samples", "5", "-parallel", "1")
	all = timingLines.ReplaceAllString(all, "")
	for _, name := range []string{"figure2", "table4", "causes", "coverage"} {
		status, out := seedbench(t, "-exp", name, "-samples", "5", "-parallel", "1")
		if status != 0 {
			t.Fatalf("-exp %s exited %d", name, status)
		}
		var ran []string
		for _, line := range strings.Split(out, "\n") {
			if m := timingLineName.FindStringSubmatch(line); m != nil {
				ran = append(ran, m[1])
			}
		}
		if strings.Join(ran, " ") != "grid "+name {
			t.Errorf("-exp %s ran %v, want the grid and then %s", name, ran, name)
		}
		if block := timingLines.ReplaceAllString(out, ""); !strings.Contains(all, block) {
			t.Errorf("-exp %s printed a block -exp all does not:\n%s", name, block)
		}
	}
	if got, _ := seedbench(t, "-exp", "grid"); got != 2 {
		t.Errorf("-exp grid exited %d, want 2: the stage is not an experiment", got)
	}
}

// timeLanes runs a pooled row exactly reps times per lane, in pairs whose
// order alternates (sequential first on even reps), and returns each lane's
// last output.
func TestTimeLanesRunsRepsPerLane(t *testing.T) {
	seq, par := runner.New(1), runner.New(2)
	for _, reps := range []int{1, 2, 5} {
		var order []*runner.Pool
		calls := map[*runner.Pool]int{}
		row := func(p *runner.Pool) string {
			order = append(order, p)
			calls[p]++
			return fmt.Sprintf("%d workers, call %d", p.Workers(), calls[p])
		}
		var tm expTiming
		out, baseline := timeLanes(&tm, reps, seq, par, row)
		if calls[seq] != reps || calls[par] != reps || len(order) != 2*reps {
			t.Fatalf("-reps %d: %d sequential and %d parallel calls, want %d each", reps, calls[seq], calls[par], reps)
		}
		for r := 0; r < reps; r++ {
			first, second := seq, par
			if r%2 == 1 {
				first, second = par, seq
			}
			if order[2*r] != first || order[2*r+1] != second {
				t.Errorf("-reps %d, pair %d: ran the %d-worker lane first", reps, r, order[2*r].Workers())
			}
		}
		if tm.Runs != 2*reps {
			t.Errorf("-reps %d: runs %d, want %d", reps, tm.Runs, 2*reps)
		}
		if want := fmt.Sprintf("2 workers, call %d", reps); out != want {
			t.Errorf("-reps %d: parallel output %q, want the last one, %q", reps, out, want)
		}
		if want := fmt.Sprintf("1 workers, call %d", reps); baseline != want {
			t.Errorf("-reps %d: baseline %q, want the last one, %q", reps, baseline, want)
		}
	}
}

// -exp all does each piece of work once. At -parallel 1 every management
// cell is replayed once (238 bare/cold restores at seed 1, 30 samples: the
// grid's 180, mobility's 48, ten for Figures 11a, 11b, 12 and 13; four
// experiments each replaying their own cells made it 514). At -parallel 2 a
// pool-less row runs once and reports no speedup, a pooled row runs once per
// lane, the totals count a one-lane row on both sides, and stdout without
// its timing lines is the -parallel 1 run's. The grid's cells are its 180
// management cells and the delivery cells Table 4 counts: the first 30
// delivery cases under each SEED mode and the stalled gateways among them
// under legacy.
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
	before = restores()
	status, two := seedbench(t, "-exp", "all", "-samples", "30", "-seed", "1", "-parallel", "2", "-json", path)
	if status != 0 {
		t.Fatalf("-parallel 2 exited %d", status)
	}
	// The second lane replays each pooled row's cells once more: the grid's
	// 180, mobility's 48, Figure 11a's 2 and Figure 13's 6.
	if got, want := restores()-before, 238+180+48+2+6; got != want {
		t.Errorf("-exp all -samples 30 -seed 1 -parallel 2 restored %d bare/cold prototypes, want %d", got, want)
	}
	if a, b := timingLines.ReplaceAllString(one, ""), timingLines.ReplaceAllString(two, ""); a != b {
		t.Errorf("stdout without timing lines differs between -parallel 1 and 2:\n%s\n-parallel 2:\n%s", a, b)
	}
	for _, line := range strings.Split(two, "\n") {
		m := timingLineName.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		if oneLane[m[1]] == strings.Contains(line, "speedup") {
			t.Errorf("pool-less %v, timing line %q", oneLane[m[1]], line)
		}
		if !strings.Contains(line, "; live ") {
			t.Errorf("timing line without the live heap: %q", line)
		}
	}

	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gridCells := 180 + 2*30
	for _, dc := range seed.GenerateDataset(1).Delivery()[:30] {
		if dc.Kind == seed.DeliveryStalledGateway {
			gridCells++
		}
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
		case !oneLane[name] && (!paired || runs != 2):
			t.Errorf("pooled %s: runs %v, speedup present %v; want one run on each lane", name, runs, paired)
		}
		if _, has := e["live_mb"]; !has {
			t.Errorf("%s: no live_mb", name)
		}
		if cells, has := e["cells"]; has != (name == "grid") || has && cells.(float64) != float64(gridCells) {
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
