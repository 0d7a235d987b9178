package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	a := side{med: 100, q1: 99, q3: 101, runs: 10}
	for _, c := range []struct {
		b      side
		better string
		bound  float64
		word   string
	}{
		{side{med: 95, q1: 94, q3: 96}, "higher", 0.10, "ok"},
		{side{med: 85, q1: 84, q3: 86}, "higher", 0.10, "EXCEEDED"},
		{side{med: 85, q1: 84, q3: 86}, "lower", 0.10, "ok"},
		{side{med: 112, q1: 111, q3: 113}, "lower", 0.10, "EXCEEDED"},
		{side{med: 102, q1: 90, q3: 115}, "lower", 0.10, "unresolved"},
	} {
		if _, word := verdict(a, c.b, c.better, c.bound); word != c.word {
			t.Errorf("verdict(%+v, better=%s, bound=%v) = %s, want %s", c.b, c.better, c.bound, word, c.word)
		}
	}
}

func TestCompareReadsTwoSetsAndFlagsARegression(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rate float64, model string) string {
		path := filepath.Join(dir, name)
		for seedVal := int64(1); seedVal <= 3; seedVal++ {
			r := newResult(wFleetMem, seedVal, 1, false, environment{N: 2})
			for _, d := range endToEnd {
				r.setValue(d.Name, 1)
			}
			r.setValue("ops_per_s_w1", rate+float64(seedVal))
			r.Digests["model"] = model
			r.Attempted = 1
			r.finish()
			if err := appendRecord(path, r); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	a, same, slow := write("a.jsonl", 1000, "m1"), write("same.jsonl", 1001, "m1"), write("slow.jsonl", 700, "m2")

	var out, errOut bytes.Buffer
	if code := compareMain([]string{"-root", "..", a, same}, &out, &errOut); code != 0 {
		t.Errorf("comparing like with like exits %d: %s%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "3 (workload, seed) pairs identical, 0 differ") {
		t.Errorf("digests not reported identical:\n%s", out.String())
	}
	out.Reset()
	if code := compareMain([]string{"-root", "..", a, slow}, &out, &errOut); code != 1 {
		t.Errorf("a 30%% slower set exits %d, want 1:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "EXCEEDED") || !strings.Contains(out.String(), "digests DIFFER") {
		t.Errorf("regression or digest change not flagged:\n%s", out.String())
	}
	if code := compareMain([]string{"-root", "..", a, filepath.Join(dir, "missing.jsonl")}, &out, &errOut); code != 2 {
		t.Errorf("a missing file exits %d, want 2", code)
	}
	if _, err := os.Stat(a); err != nil {
		t.Fatal(err)
	}
}
