// Command benchmark is the repository's one benchmark: four workloads
// over the simulator and the fleet tier, a handful of end-to-end metrics
// measured on each, per-layer probes in a separate traced run, and a
// built-in check that every output is what it was on the first pass.
// BENCHMARK.json at the repository root is its contract; README.md here
// defines every metric and workload.
//
//	bash benchmark/run.sh [--workload NAME|all] [--seed S] [--seconds T]
//	                      [--trace 0|1] [--out FILE] [--trace-out FILE]
//	bash benchmark/run.sh compare A.jsonl B.jsonl
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// buildDir holds everything a run leaves behind — built commands,
// temporary journals, span files — under the checkout root. It is the
// one directory .gitignore names for the benchmark.
const buildDir = ".bench_build"

func main() {
	code := realMain(os.Args[1:], os.Stdout, os.Stderr)
	leftovers.sweep()
	os.Exit(code)
}

func realMain(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "all", "workload to run: suite, corpus, delivery, fleet_mem, or all")
		seedVal  = fs.Int64("seed", 1, "every input is generated from this seed")
		seconds  = fs.Float64("seconds", 10, "measured time per workload, set-up and checks not counted")
		trace    = fs.Int("trace", 0, "1: the traced run (per-layer metrics and a span file) instead of the end-to-end one")
		out      = fs.String("out", "", "append each workload's full result record to FILE, one JSON object per line")
		traceOut = fs.String("trace-out", "", "span file of the traced run (default "+buildDir+"/trace/<workload>-seed<S>.json)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "benchmark: unexpected argument, non-positive -seconds, or -trace not 0 or 1")
		return 2
	}
	selected := workloadNames
	if *workload != "all" {
		if runners[*workload] == nil {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q (known: %v, all)\n", *workload, workloadNames)
			return 2
		}
		selected = []string{*workload}
	}
	if _, err := os.Stat(filepath.Join("cmd", "seedbench")); err != nil {
		fmt.Fprintf(stderr, "benchmark: run from the root of a checkout of the repository (benchmark/run.sh does): %v\n", err)
		return 2
	}

	// A signal must not leave daemons or journals behind.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		leftovers.sweep()
		os.Exit(130)
	}()

	tmpBase := filepath.Join(buildDir, "tmp")
	if err := os.MkdirAll(tmpBase, 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	built, buildTime, err := buildTools(".", filepath.Join(buildDir, "bin"))
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	env := readEnvironment(".", tmpBase)

	code := 0
	for _, name := range selected {
		res := newResult(name, *seedVal, *seconds, *trace == 1, env)
		c := &runCtx{tmpBase: tmpBase, tools: built, seed: *seedVal, seconds: *seconds, n: env.N, res: res}
		if res.Traced {
			c.tr = newTracer()
		}
		if err := measure(c, buildTime); err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", name, err)
			return 1
		}
		if res.Traced {
			path := *traceOut
			if path == "" || len(selected) > 1 {
				path = filepath.Join(buildDir, "trace", fmt.Sprintf("%s-seed%d.json", name, *seedVal))
			}
			if err := c.tr.write(path); err != nil {
				fmt.Fprintln(stderr, "benchmark: span file:", err)
				return 1
			}
			res.Notes = append(res.Notes, fmt.Sprintf("%d spans written to %s", len(c.tr.spans), path))
		}
		res.print(stdout)
		if *out != "" {
			if err := appendRecord(*out, res); err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
		}
		if !res.Correct {
			code = 1
		}
	}
	return code
}

var runners = map[string]func(*runCtx) error{
	wSuite:    runSuite,
	wCorpus:   runCorpus,
	wDelivery: runDelivery,
	wFleetMem: runFleetMem,
}

// measure runs one workload and, on the traced run, the probes.
func measure(c *runCtx, buildTime time.Duration) error {
	if err := runners[c.res.Workload](c); err != nil {
		return err
	}
	if c.res.Traced {
		if err := runProbes(c); err != nil {
			return err
		}
	}
	c.res.setValue("build_s", buildTime.Seconds())
	c.res.finish()
	return nil
}

// appendRecord adds one result to a JSON-lines file, so several runs (of
// several seeds, or of two commits) collect into one set for compare.
func appendRecord(path string, r *result) (err error) {
	blob, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, f.Close()) }()
	_, err = f.Write(append(blob, '\n'))
	return err
}
