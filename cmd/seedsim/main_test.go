package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// seedsim calls run as the command line would and returns the exit status
// and what the run printed on stdout. run registers its flags on the
// process-wide flag set, so each call gets a new one.
func seedsim(t *testing.T, args ...string) (int, string) {
	t.Helper()
	out, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	stdout := os.Stdout
	os.Stdout = out
	flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	status := run(args)
	os.Stdout = stdout
	printed, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return status, string(printed)
}

// A count of no cases, or fewer, is a usage error: it prints no timeline.
func TestRejectsTrialsBelowOne(t *testing.T) {
	for _, trials := range []string{"0", "-2"} {
		if got, printed := seedsim(t, "-failure", "control/9", "-trials", trials); got != 2 || printed != "" {
			t.Errorf("seedsim -trials %s exited %d and printed %q, want 2 and nothing", trials, got, printed)
		}
	}
}

// Two cases print Table 4's statistics over them, whatever the worker count.
func TestTrialsSummary(t *testing.T) {
	const want = "control/9 cases 0-1 under SEED-R, root seed 1: n 2  unrec 0  median 13.3318s  p90 13.3318s\n"
	for _, parallel := range []string{"1", "2"} {
		got, printed := seedsim(t, "-failure", "control/9", "-trials", "2", "-parallel", parallel)
		if got != 0 || printed != want {
			t.Errorf("seedsim -trials 2 -parallel %s exited %d and printed %q, want 0 and %q", parallel, got, printed, want)
		}
	}
}

// One watched cell ends with its case line: the result the Table 4 row
// reads and the rows that count it. This cell's disruption moves with the
// applet's timing, so a change to that timing must change this line
// knowingly.
func TestSingleCellCaseLine(t *testing.T) {
	const want = `data/31 case 0 under SEED-R: dataset case 8, data plane, cause #31 Request rejected, unspecified, transient, heal 893ms, cell seed -5169631986570663211: recovered, disruption 16.0270s; counted by Table 4 "Data Plane SEED-R" and causes "data/31 SEED-R" at -samples > 2`
	got, printed := seedsim(t, "-failure", "data/31", "-case", "0", "-mode", "seed-r")
	lines := strings.Split(strings.TrimSuffix(printed, "\n"), "\n")
	if got != 0 || len(lines) < 2 || lines[len(lines)-1] != want {
		t.Fatalf("seedsim -failure data/31 -case 0 -mode seed-r exited %d and ended with %q, want 0 and a timeline then %q",
			got, lines[len(lines)-1], want)
	}
}

// An unknown -mode, and -case beside more than one trial, are usage errors:
// they print no timeline.
func TestRejectsBadModeAndCaseWithTrials(t *testing.T) {
	for _, args := range [][]string{
		{"-mode", "seed-x"},
		{"-case", "1", "-trials", "2"},
	} {
		if got, printed := seedsim(t, args...); got != 2 || printed != "" {
			t.Errorf("seedsim %v exited %d and printed %q, want 2 and nothing", args, got, printed)
		}
	}
}
