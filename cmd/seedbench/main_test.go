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
	for _, reps := range []string{"0", "-3"} {
		if got, _ := seedbench(t, "-exp", "table4", "-samples", "5", "-reps", reps); got != 2 {
			t.Errorf("seedbench -reps %s exited %d, want 2", reps, got)
		}
	}
}

// timingLines is what the benchmark's suite workload strips before it
// digests stdout (benchmark/adapter.go).
var timingLines = regexp.MustCompile(`(?m)^(\s*\[\S+ regenerated in .*\]|total wall-clock .*)\n`)

// timingLineName captures the experiment a "[… regenerated in …]" line is about.
var timingLineName = regexp.MustCompile(`^\s*\[(\S+) regenerated`)

// A -cdf file that cannot be written fails the run, as a -json one does.
func TestCDFWriteErrorFails(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full:", err)
	}
	if got, _ := seedbench(t, "-exp", "figure2", "-samples", "5", "-cdf", "/dev/full"); got == 0 {
		t.Fatal("seedbench -cdf /dev/full exited 0")
	}
}

// -cdf writes Figure 2's curves, so a run that does not regenerate Figure 2
// is refused, with a message that says so, before it runs anything.
func TestCDFNeedsFigure2(t *testing.T) {
	stderr, err := os.Create(filepath.Join(t.TempDir(), "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	defer stderr.Close()
	saved := os.Stderr
	os.Stderr = stderr
	cdf := filepath.Join(t.TempDir(), "cdf.csv")
	status, out := seedbench(t, "-exp", "table4", "-samples", "5", "-cdf", cdf)
	os.Stderr = saved
	if status != 2 || out != "" {
		t.Errorf("-exp table4 -cdf exited %d and printed %q, want 2 and nothing", status, out)
	}
	if msg, _ := os.ReadFile(stderr.Name()); !strings.Contains(string(msg), "figure2") {
		t.Errorf("-exp table4 -cdf said %q, want a message naming figure2", msg)
	}
	if _, err := os.Stat(cdf); !os.IsNotExist(err) {
		t.Errorf("-exp table4 -cdf left a file: %v", err)
	}
}

// Naming one fold alone runs the grid and then the fold, and prints,
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
		t.Errorf("-exp grid exited %d, want 2: the grid is not an experiment", got)
	}
}

// printSlackMS bounds what an -exp all run's elapsed wall spends outside
// every row's span: generating the dataset before the first step, and
// printing.
const printSlackMS = 100

// -exp all does each piece of work once, at any -parallel: every
// management cell is replayed once (238 bare/cold restores at seed 1, 30
// samples: the grid's 180, mobility's 48, ten for Figures 11a, 11b, 12 and
// 13), every row runs once and its record carries no field beyond its one
// run's, each timing line is one the benchmark strips, and stdout without
// those lines does not depend on the worker count. The
// grid's cells are its 180 management cells and the delivery cells Table 4
// counts: the first 30 delivery cases under each SEED mode and the stalled
// gateways among them under legacy.
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
	gridCells := 180 + 2*30
	for _, dc := range seed.GenerateDataset(1).Delivery()[:30] {
		if dc.Kind == seed.DeliveryStalledGateway {
			gridCells++
		}
	}
	fields := map[string]bool{"name": true, "wall_ms": true, "runs": true, "cells": true, "gc_cycles": true, "alloc_mb": true, "live_mb": true}
	topFields := map[string]bool{"seed": true, "samples": true, "parallel": true, "gomaxprocs": true, "num_cpu": true,
		"experiments": true, "total_wall_ms": true, "causes": true, "prototypes": true}
	var first string
	for _, parallel := range []string{"1", "2"} {
		path := filepath.Join(t.TempDir(), "report.json")
		before := restores()
		status, out := seedbench(t, "-exp", "all", "-samples", "30", "-seed", "1", "-parallel", parallel, "-json", path)
		if status != 0 {
			t.Fatalf("-parallel %s exited %d", parallel, status)
		}
		if got := restores() - before; got != 238 {
			t.Errorf("-exp all -samples 30 -seed 1 -parallel %s restored %d bare/cold prototypes, want 238", parallel, got)
		}
		if first == "" {
			first = timingLines.ReplaceAllString(out, "")
		} else if got := timingLines.ReplaceAllString(out, ""); got != first {
			t.Errorf("stdout without timing lines differs between -parallel 1 and %s:\n%s\n-parallel %s:\n%s", parallel, first, parallel, got)
		}
		lines := 0
		for _, line := range strings.Split(out, "\n") {
			if timingLineName.MatchString(line) {
				lines++
				if !strings.Contains(line, "; live ") {
					t.Errorf("timing line without the live heap: %q", line)
				}
			}
		}
		if stripped := len(timingLines.FindAllString(out, -1)); stripped != lines {
			t.Errorf("-parallel %s: %d timing lines, %d of them the strip pattern's", parallel, lines, stripped)
		}

		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var report struct {
			Experiments []map[string]any `json:"experiments"`
			TotalWallMS float64          `json:"total_wall_ms"`
		}
		if err := json.Unmarshal(blob, &report); err != nil {
			t.Fatal(err)
		}
		var top map[string]any
		if err := json.Unmarshal(blob, &top); err != nil {
			t.Fatal(err)
		}
		for key := range top {
			if !topFields[key] {
				t.Errorf("-parallel %s: unexpected report field %q", parallel, key)
			}
		}
		if len(report.Experiments) != 16 {
			t.Fatalf("%d experiment records, want the 15 experiments and the grid", len(report.Experiments))
		}
		sum, largest := 0.0, 0.0
		for _, e := range report.Experiments {
			name := e["name"].(string)
			for key := range e {
				if !fields[key] {
					t.Errorf("-parallel %s, %s: unexpected field %q", parallel, name, key)
				}
			}
			if runs := e["runs"].(float64); runs != 1 {
				t.Errorf("-parallel %s, %s: runs %v, want 1", parallel, name, runs)
			}
			if _, has := e["live_mb"]; !has {
				t.Errorf("%s: no live_mb", name)
			}
			if cells, has := e["cells"]; has != (name == "grid") || has && cells.(float64) != float64(gridCells) {
				t.Errorf("%s: cells %v", name, cells)
			}
			wall := e["wall_ms"].(float64)
			sum, largest = sum+wall, max(largest, wall)
		}
		// The rows are spans, and at -parallel 2 they overlap: the elapsed
		// wall covers the longest one and, the dataset's generation and the
		// printing aside, no more than all of them end to end.
		if report.TotalWallMS < largest || report.TotalWallMS > sum+printSlackMS {
			t.Errorf("-parallel %s: total_wall_ms = %v, want at least the largest row %v and at most the rows' sum %v + %v", parallel, report.TotalWallMS, largest, sum, printSlackMS)
		}
	}
}
