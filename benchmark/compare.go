package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// contract is BENCHMARK.json.
type contract struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

func readContract(path string) (*contract, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(blob, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

// readRecords loads a JSON-lines result file.
func readRecords(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s holds no result records", path)
	}
	return out, nil
}

// side is one set of runs' readings of one metric on one workload. With
// several runs the quartiles are taken across the runs' values; with one,
// they are that run's own (across its passes).
type side struct {
	med, q1, q3 float64
	runs        int
}

func sideOf(records []result, workload, metric string, traced bool) (side, bool) {
	var vals []float64
	var only summary
	for _, r := range records {
		if r.Workload != workload || r.Traced != traced {
			continue
		}
		if s, ok := r.Metrics[metric]; ok {
			vals = append(vals, s.Value)
			only = s
		}
	}
	switch len(vals) {
	case 0:
		return side{}, false
	case 1:
		return side{med: only.Value, q1: only.Q1, q3: only.Q3, runs: 1}, true
	}
	sort.Float64s(vals)
	q1, med, q3 := quartiles(vals)
	return side{med: med, q1: q1, q3: q3, runs: len(vals)}, true
}

// verdict judges B against A for one bounded metric. worse is how much
// worse B's median is than A's, as a share of A's (negative: better).
func verdict(a, b side, better string, bound float64) (worse float64, word string) {
	if a.med != 0 {
		worse = (b.med - a.med) / a.med
		if better == "higher" {
			worse = -worse
		}
	}
	noise := max(spread(a.q1, a.med, a.q3), spread(b.q1, b.med, b.q3))
	switch {
	case worse > bound:
		return worse, "EXCEEDED"
	case noise > bound:
		// The sets' own spread is wider than the bound: "no worse" cannot
		// be told from "worse by less than the noise".
		return worse, "unresolved"
	default:
		return worse, "ok"
	}
}

// compareMain prints, per (metric, workload), both sets' medians with
// quartiles, how much worse B is, the bound and the verdict; then whether
// the two sets' digests agree seed by seed. It exits 1 when a bound is
// exceeded or a run in either set was incorrect.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	root := fs.String("root", ".", "checkout root, where BENCHMARK.json is read from")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: benchmark compare [-root DIR] A.jsonl B.jsonl")
		return 2
	}
	con, err := readContract(filepath.Join(*root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(stderr, "benchmark compare:", err)
		return 2
	}
	a, err := readRecords(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "benchmark compare:", err)
		return 2
	}
	b, err := readRecords(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "benchmark compare:", err)
		return 2
	}

	code := 0
	fmt.Fprintf(stdout, "%-14s %-14s %28s %28s %8s %6s  %s\n", "workload", "metric", "A median [q1, q3] runs", "B median [q1, q3] runs", "worse", "bound", "verdict")
	for _, w := range con.Workloads {
		for _, m := range con.EndToEnd {
			sa, okA := sideOf(a, w.Name, m.Name, false)
			sb, okB := sideOf(b, w.Name, m.Name, false)
			if !okA || !okB {
				continue
			}
			worse, word := verdict(sa, sb, m.Better, m.Bound)
			if word == "EXCEEDED" {
				code = 1
			}
			fmt.Fprintf(stdout, "%-14s %-14s %28s %28s %+7.1f%% %5.0f%%  %s\n", w.Name, m.Name, sa, sb, worse*100, m.Bound*100, word)
		}
	}
	layers := false
	for _, w := range con.Workloads {
		for _, m := range con.PerLayer {
			sa, okA := sideOf(a, w.Name, m.Name, true)
			sb, okB := sideOf(b, w.Name, m.Name, true)
			if !okA || !okB {
				continue
			}
			if !layers {
				fmt.Fprintf(stdout, "\nper-layer (traced runs; no bounds)\n")
				layers = true
			}
			fmt.Fprintf(stdout, "%-14s %-32s %14.6g %14.6g %s\n", w.Name, m.Name, sa.med, sb.med, m.Unit)
		}
	}

	fmt.Fprintln(stdout)
	type key struct {
		workload string
		seed     int64
		traced   bool
	}
	digestsOf := func(records []result) map[key]string {
		out := map[key]string{}
		for _, r := range records {
			k := key{r.Workload, r.Seed, r.Traced}
			d := digest(r.Digests)
			if prev, ok := out[k]; ok && prev != d {
				d = "differ within the set"
			}
			out[k] = d
		}
		return out
	}
	da, db := digestsOf(a), digestsOf(b)
	same, differ := 0, 0
	for k, d := range da {
		if e, ok := db[k]; ok {
			if d == e {
				same++
			} else {
				differ++
				fmt.Fprintf(stdout, "digests DIFFER: %s seed %d traced=%v\n", k.workload, k.seed, k.traced)
			}
		}
	}
	fmt.Fprintf(stdout, "digests: %d (workload, seed) pairs identical, %d differ\n", same, differ)
	for i, records := range [][]result{a, b} {
		for _, r := range records {
			if !r.Correct || r.Failed > 0 {
				fmt.Fprintf(stdout, "set %c: %s seed %d was not correct (%d of %d failed)\n", 'A'+i, r.Workload, r.Seed, r.Failed, r.Attempted)
				code = 1
			}
		}
	}
	return code
}

func (s side) String() string {
	return fmt.Sprintf("%.5g [%.5g, %.5g] %d", s.med, s.q1, s.q3, s.runs)
}
