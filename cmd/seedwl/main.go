// Command seedwl compiles declarative workload specs into deterministic
// failure-scenario corpora.
//
// Usage:
//
//	seedwl [-spec FILE] [-seed S] [-parallel P] [-run N] [-out FILE]
//	       [-dumpspec]
//
// seedwl compiles the spec (built-in paper-mix when -spec is absent) into
// its flat cell list, optionally replays a stride sample of -run cells
// end-to-end on the emulated testbed (-run -1 for every cell), and writes
// the canonical corpus JSON to -out ("-" for stdout). -dumpspec prints the
// effective spec and exits. The corpus and the summary line are
// byte-identical at any -parallel: TestWorkloadCorpusParallelDeterminism
// and the CI workflow check it.
//
// How closely the built-in spec matches the paper's Table 1 cause mix and
// Figure 2 disruption CDF is checked by tests, not by this command:
// TestDefaultSpecMixWithinGate (internal/workload) and
// TestDefaultSpecFigure2Shape (root package).
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	seed "github.com/seed5g/seed"
	"github.com/seed5g/seed/internal/runner"
	"github.com/seed5g/seed/internal/workload"
)

func main() { os.Exit(run(os.Args[1:])) }

// run is main behind an exit status: 0, or 2 for a spec, corpus or output
// that fails. It registers its flags on the process-wide flag set.
func run(args []string) int {
	specPath := flag.String("spec", "", "workload spec JSON (default: built-in paper-mix spec)")
	seedVal := flag.Int64("seed", 1, "root simulation seed")
	parallel := flag.Int("parallel", 0, "cell worker goroutines (0 = GOMAXPROCS, 1 = sequential)")
	runN := flag.Int("run", 0, "replay this many stride-sampled cells end-to-end (-1 = all, 0 = compile only)")
	out := flag.String("out", "", "write the corpus JSON to this file (- for stdout)")
	dumpSpec := flag.Bool("dumpspec", false, "print the effective spec JSON and exit")
	if flag.CommandLine.Parse(args) != nil {
		return 2
	}

	sp, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "seedwl: %v\n", err)
		return 2
	}
	if *dumpSpec {
		os.Stdout.Write(workload.MarshalSpec(sp))
		return 0
	}
	return runGenerate(runner.New(*parallel), sp, *seedVal, *runN, *out)
}

// loadSpec reads and validates a spec file, or returns the built-in
// paper-anchored default.
func loadSpec(path string) (*workload.Spec, error) {
	if path == "" {
		return workload.DefaultSpec(), nil
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	sp, err := workload.ParseSpec(blob)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := sp.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return sp, nil
}

// buildCorpus compiles the spec and measures a stride sample of runN
// cells (plus, when runN > 0, every mobility cell — they are the
// scenarios only end-to-end replay can characterize).
func buildCorpus(p *runner.Pool, sp *workload.Spec, seedVal int64, runN int) (*workload.Corpus, error) {
	cells, err := workload.Compile(sp, seedVal)
	if err != nil {
		return nil, err
	}
	runs := measureSample(p, sp, cells, sampleIndexes(cells, runN))
	return &workload.Corpus{
		Spec: sp, Seed: seedVal, Cells: cells,
		Runs: runs, Stats: workload.StatsOf(cells, runs),
	}, nil
}

// sampleIndexes picks the cell indexes to replay: an even stride of n
// across the corpus, united with every mobility cell when sampling.
func sampleIndexes(cells []workload.Cell, n int) []int {
	if n == 0 {
		return nil
	}
	if n < 0 || n >= len(cells) {
		all := make([]int, len(cells))
		for i := range all {
			all[i] = i
		}
		return all
	}
	pick := map[int]bool{}
	step := float64(len(cells)) / float64(n)
	for i := 0; i < n; i++ {
		pick[int(float64(i)*step)] = true
	}
	for i, c := range cells {
		if workload.MobilityScenario(c.Scenario) {
			pick[i] = true
		}
	}
	idx := make([]int, 0, len(pick))
	for i := range pick {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	return idx
}

// measureSample replays the selected cells under their populations'
// native modes and tags each outcome with its cell index.
func measureSample(p *runner.Pool, sp *workload.Spec, cells []workload.Cell, idx []int) []workload.Run {
	if len(idx) == 0 {
		return nil
	}
	return runner.Map(p, len(idx), func(i int) workload.Run {
		c := cells[idx[i]]
		mode, _ := seed.ParseMode(c.Mode)
		return workload.Run{Index: idx[i], Outcome: seed.RunWorkloadCell(sp, c, mode, nil)}
	})
}

// runGenerate compiles the corpus, optionally replays it, and emits it.
func runGenerate(p *runner.Pool, sp *workload.Spec, seedVal int64, runN int, out string) int {
	before := coldPrototypes()
	corpus, err := buildCorpus(p, sp, seedVal, runN)
	if err != nil {
		fmt.Fprintf(os.Stderr, "seedwl: %v\n", err)
		return 2
	}
	if out != "" {
		if err := writeBlob(out, workload.MarshalCorpus(corpus)); err != nil {
			fmt.Fprintf(os.Stderr, "seedwl: %v\n", err)
			return 2
		}
	}
	st := corpus.Stats
	fmt.Printf("spec %q seed %d: %d cells, control share %.3f, %d scenarios",
		sp.Name, seedVal, st.Cells, st.ControlShare, len(st.Scenarios))
	built := -1
	if st.Measured > 0 {
		fmt.Printf("; measured %d (recovered %d, handovers %d, context loss %d)",
			st.Measured, st.Recovered, st.Handovers, st.ContextLoss)
		// Restores are one per measured non-desync cell. Builds depend on how the workers' first cells
		// overlapped, so they go to stderr: above the worker count they mean
		// cells constructed testbeds instead of restoring one.
		after := coldPrototypes()
		fmt.Printf("; cold prototypes restored %d", after.Restores-before.Restores)
		built = after.Boots - before.Boots
	}
	fmt.Println()
	if built >= 0 {
		fmt.Fprintf(os.Stderr, "seedwl: cold prototypes built %d\n", built)
	}
	return 0
}

// coldPrototypes returns the boots and restores of the cold prototype
// family so far in this process; a run reports the difference it made.
func coldPrototypes() seed.ProtoStats {
	for _, f := range seed.PrototypeStats() {
		if f.Family == "cold" {
			return f.ProtoStats
		}
	}
	return seed.ProtoStats{}
}

// writeBlob writes bytes to a file or stdout ("-").
func writeBlob(path string, blob []byte) error {
	if path == "-" {
		_, err := os.Stdout.Write(blob)
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}
