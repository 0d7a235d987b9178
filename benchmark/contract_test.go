package main

import (
	"bytes"
	"regexp"
	"sort"
	"strings"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func names(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.Name
	}
	return out
}

// BENCHMARK.json is the contract a pipeline reads; the tables in
// metrics.go are what the harness emits. They must say the same thing.
func TestContractMatchesHarness(t *testing.T) {
	con, err := readContract("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, w := range con.Workloads {
		got = append(got, w.Name)
		if runners[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %q, which the harness cannot run", w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.Name)
		}
	}
	if strings.Join(got, " ") != strings.Join(workloadNames, " ") {
		t.Errorf("workloads: BENCHMARK.json has %v, the harness runs %v", got, workloadNames)
	}

	check := func(kind string, file, table []metricDef, bounded bool) {
		t.Helper()
		if a, b := strings.Join(names(file), " "), strings.Join(names(table), " "); a != b {
			t.Errorf("%s names differ:\n BENCHMARK.json: %s\n harness:        %s", kind, a, b)
			return
		}
		for i, f := range file {
			if f.Unit != table[i].Unit || f.Better != table[i].Better {
				t.Errorf("%s %s: BENCHMARK.json says %s/%s, the harness %s/%s", kind, f.Name, f.Unit, f.Better, table[i].Unit, table[i].Better)
			}
			if bounded && (f.Bound <= 0 || f.Bound > 0.25) {
				t.Errorf("%s %s: bound %v is not in (0, 0.25]", kind, f.Name, f.Bound)
			}
			if !bounded && f.Bound != 0 {
				t.Errorf("%s %s: a per-layer metric has no bound", kind, f.Name)
			}
		}
	}
	check("end_to_end", con.EndToEnd, endToEnd, true)
	check("per_layer", con.PerLayer, perLayer, false)

	if con.RunSeconds < 1 || con.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", con.RunSeconds)
	}
	if len(con.PerLayer) > 128 || len(con.EndToEnd) > 16 || len(con.Workloads) < 2 || len(con.Workloads) > 8 {
		t.Errorf("too many or too few entries: %d per-layer, %d end-to-end, %d workloads", len(con.PerLayer), len(con.EndToEnd), len(con.Workloads))
	}
	if len(con.Paths) != 1 || con.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", con.Paths)
	}
}

func TestNamesAreWellFormedAndUnique(t *testing.T) {
	seen := map[string]bool{}
	all := append(append([]metricDef{}, endToEnd...), perLayer...)
	for _, d := range all {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]+ of at most 64", d.Name)
		}
		if seen[d.Name] {
			t.Errorf("metric name %q used twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
		if !regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`).MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
	}
	for _, w := range workloadNames {
		if !nameRE.MatchString(w) || seen[w] {
			t.Errorf("workload name %q malformed or clashing with a metric", w)
		}
		seen[w] = true
	}
	if !seen["setup_s"] {
		t.Error("the end-to-end metrics must include setup_s")
	}
}

// Whatever a workload did or did not measure, the finished result carries
// exactly the metrics of its kind — and the closing line is one JSON
// object with the four keys a pipeline expects.
func TestResultEmitsExactlyTheListedMetrics(t *testing.T) {
	for _, traced := range []bool{false, true} {
		want := names(endToEnd)
		if traced {
			want = names(perLayer)
		}
		r := newResult(wCorpus, 1, 1, traced, environment{N: 2})
		r.setValue("ops_per_s_w1", 10)    // end-to-end: kept only on the untraced run
		r.setValue("sched.timer_ns", 100) // per-layer: kept only on the traced run
		r.setValue("no.such_metric", 1)   // never kept
		r.Attempted = 5
		r.finish()
		var got []string
		for name, s := range r.Metrics {
			got = append(got, name)
			if s.Unit == "" {
				t.Errorf("traced=%v: %s has no unit", traced, name)
			}
		}
		sort.Strings(got)
		sort.Strings(want)
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("traced=%v: emitted %v, want %v", traced, got, want)
		}
		var buf bytes.Buffer
		r.print(&buf)
		lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
		last := lines[len(lines)-1]
		for _, key := range []string{`"correct":true`, `"attempted":5`, `"failed":0`, `"metrics":{`} {
			if !strings.Contains(last, key) {
				t.Errorf("traced=%v: closing line lacks %s: %s", traced, key, last)
			}
		}
	}
}

func TestFailedOperationsMakeTheResultIncorrect(t *testing.T) {
	r := newResult(wSuite, 1, 1, false, environment{})
	r.Attempted, r.Failed = 10, 1
	r.finish()
	if r.Correct {
		t.Error("a result with failed operations must not be correct")
	}
}
