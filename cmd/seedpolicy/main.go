// Command seedpolicy runs the decision-trace subsystem end to end: it
// traces Algorithm 1's decisions over the corpus of the built-in
// paper-mix spec (workload.DefaultSpec),
// builds counterfactual reset-tier matrices for the mobility scenario
// classes, and searches the policy space (grid + evolutionary
// refinement) for a configuration that beats the paper's.
//
// Usage:
//
//	seedpolicy [-seed S] [-spec FILE] [-cells N] [-rounds R] [-topk K]
//	           [-pins P] [-parallel W] [-json FILE]
//
// The corpus is compiled from the built-in paper-mix spec
// (workload.DefaultSpec) unless -spec points at a spec JSON. Only SEED-mode, non-user-action
// cells are scored: a policy cannot change legacy handling, and
// user-action cells cost every policy the same notice. -cells truncates
// the evaluation set (corpus order) to bound wall time; the
// counterfactual anchor cells are found in the full corpus regardless.
//
// -json writes the policy report as JSON: per-stage decision counts, the
// counterfactual matrices, and the search result (best found vs paper
// policy).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"github.com/seed5g/seed/internal/core"
	"github.com/seed5g/seed/internal/policy"
	"github.com/seed5g/seed/internal/runner"
	"github.com/seed5g/seed/internal/workload"
)

// policyReport is the document -json writes.
type policyReport struct {
	Seed        int64  `json:"seed"`
	Spec        string `json:"spec"`
	CorpusCells int    `json:"corpus_cells"`
	EvalCells   int    `json:"eval_cells"`
	Parallel    int    `json:"parallel"`
	// TraceCounts are the per-stage decision counts from the paper-policy
	// traced pass over the evaluation cells.
	TraceCounts []policy.StageCount `json:"trace_counts"`
	// Counterfactuals holds one reset-tier matrix per mobility scenario
	// class (handover-desync, tau-race).
	Counterfactuals []policy.Matrix     `json:"counterfactuals"`
	Search          policy.SearchResult `json:"search"`
	WallMS          float64             `json:"wall_ms"`
}

// searchMutants is how many mutants each survivor spawns per refinement
// round.
const searchMutants = 4

func main() {
	seedVal := flag.Int64("seed", 1, "corpus and search seed")
	specPath := flag.String("spec", "", "workload spec JSON (default: the built-in paper-mix spec, workload.DefaultSpec)")
	maxCells := flag.Int("cells", 48, "evaluation cells (first N eligible in corpus order; 0 = all)")
	rounds := flag.Int("rounds", 2, "evolutionary refinement rounds after the grid")
	topK := flag.Int("topk", 3, "survivors carried between rounds")
	pins := flag.Int("pins", 2, "decisions pinned per counterfactual matrix")
	parallel := flag.Int("parallel", 0, "worker goroutines (0 = GOMAXPROCS)")
	jsonOut := flag.String("json", "", "write the policy report JSON to this file (- for stdout)")
	flag.Parse()

	sp := workload.DefaultSpec()
	if *specPath != "" {
		blob, err := os.ReadFile(*specPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "spec: %v\n", err)
			os.Exit(1)
		}
		sp, err = workload.ParseSpec(blob)
		if err != nil {
			fmt.Fprintf(os.Stderr, "spec: %v\n", err)
			os.Exit(1)
		}
	}
	workers := *parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	pool := runner.New(workers)
	start := time.Now()

	all, err := workload.Compile(sp, *seedVal)
	if err != nil {
		fmt.Fprintf(os.Stderr, "compile: %v\n", err)
		os.Exit(1)
	}
	cells := policy.EligibleCells(all, *maxCells)
	if len(cells) == 0 {
		fmt.Fprintln(os.Stderr, "corpus has no eligible cells (SEED-mode, non-user-action)")
		os.Exit(1)
	}
	report := policyReport{
		Seed: *seedVal, Spec: sp.Name, CorpusCells: len(all), EvalCells: len(cells),
		Parallel: workers,
	}
	fmt.Printf("corpus %q: %d cells compiled, %d eligible for evaluation\n", sp.Name, len(all), len(cells))

	// (a) Per-decision trace counts: the paper policy traced over the
	// evaluation cells.
	paper := policy.Paper()
	paperScore, counts := policy.Evaluate(pool, sp, cells, paper, core.TraceFull)
	report.TraceCounts = policy.SortedCounts(counts)
	fmt.Printf("paper policy: composite %.2fs over %d cells (%d decisions traced)\n",
		paperScore.Composite, paperScore.Cells, paperScore.TotalDecisions)
	for _, row := range report.TraceCounts {
		fmt.Printf("  %-22s %d\n", row.Stage, row.Count)
	}

	// (b) Counterfactual reset-tier matrices for the mobility classes.
	for _, scenario := range []string{workload.ScenHandoverDesync, workload.ScenTAURace} {
		c, err := policy.FirstCellByScenario(all, scenario)
		if err != nil {
			fmt.Fprintf(os.Stderr, "counterfactual: %v\n", err)
			os.Exit(1)
		}
		m := policy.Counterfactual(pool, sp, c, paper, *pins)
		report.Counterfactuals = append(report.Counterfactuals, m)
		fmt.Printf("counterfactual %s (cell %d, %d decisions, pin-identity %v): baseline %.2fs\n",
			scenario, m.CellIndex, m.Decisions, m.PinIdentity, m.Baseline)
		for _, row := range m.Rows {
			best := row.Alternatives[0]
			for _, alt := range row.Alternatives[1:] {
				if alt.Composite < best.Composite {
					best = alt
				}
			}
			fmt.Printf("  seq %d (proposed %s): best alternative %s at %+.2fs\n",
				row.Seq, row.Proposed, best.Action, best.DeltaS)
		}
	}

	// (c) Policy search: grid + refinement, paper policy in the grid.
	cfg := policy.SearchConfig{
		Seed: *seedVal, Rounds: *rounds, TopK: *topK, Mutants: searchMutants,
		Progress: func(s string) { fmt.Println("search:", s) },
	}
	report.Search = policy.Search(pool, sp, cells, cfg)
	fmt.Printf("best policy: composite %.2fs vs paper %.2fs (improvement %.2fs over %d evaluations)\n",
		report.Search.Best.Score.Composite, report.Search.Paper.Score.Composite,
		report.Search.ImprovementS, report.Search.Evaluated)
	fmt.Printf("  best: %s\n", report.Search.Best.Policy)
	writeReport(*jsonOut, &report, start)
}

func writeReport(path string, report *policyReport, start time.Time) {
	report.WallMS = float64(time.Since(start)) / float64(time.Millisecond)
	if path == "" {
		return
	}
	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "json: %v\n", err)
		os.Exit(1)
	}
	blob = append(blob, '\n')
	if path == "-" {
		os.Stdout.Write(blob)
		return
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "json: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("[report written to %s]\n", path)
}
