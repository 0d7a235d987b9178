package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// The expected values are what Python's statistics.quantiles(v, n=4)
// returns for the same samples.
func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	cases := []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 3, 6, 9},
		{[]float64{10, 12, 11, 15, 9, 14, 13}, 10, 12, 14},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 1}, 0, 3, 6},
		{[]float64{7}, 7, 7, 7},
	}
	for _, c := range cases {
		s := sortedCopy(c.in)
		q1, q2, q3 := quartiles(s)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, q2, q3, c.q1, c.q2, c.q3)
		}
		if m := median(c.in); !near(m, c.q2) {
			t.Errorf("median(%v) = %v, want %v", c.in, m, c.q2)
		}
	}
	if q1, q2, q3 := quartiles(nil); q1 != 0 || q2 != 0 || q3 != 0 {
		t.Errorf("quartiles(nil) = %v %v %v, want zeros", q1, q2, q3)
	}
}

func TestSummarizeKeepsQuartilesInOrderAndItsInput(t *testing.T) {
	walls := []float64{0.5, 0.25, 1, 0.4, 0.2}
	s := summarize(walls).withRaw([]float64{3, 1, 2})
	if !near(s.Value, 0.4) || s.N != 5 || !near(s.Raw, 2) {
		t.Fatalf("summarize = %+v, want median 0.4 of 5, raw 2", s)
	}
	if !(s.Q1 <= s.Value && s.Value <= s.Q3) {
		t.Errorf("quartiles out of order: %+v", s)
	}
	if walls[0] != 0.5 {
		t.Error("summarize modified its input")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {100, 100}, {1, 1}, {0.5, 1}, {75, 75}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if percentile(nil, 50) != 0 {
		t.Error("percentile of nothing should be 0")
	}
}

// A tail percentile is reported only with at least ten samples beyond it.
func TestSupportedTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{10000, 99.9}, {9999, 99}, {1000, 99}, {999, 95}, {200, 95}, {199, 90}, {100, 90}, {99, 75}, {40, 75}, {39, 50}, {1, 50}, {0, 50}} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	s := make([]float64, 500)
	for i := range s {
		s[i] = float64(i + 1)
	}
	if p, v := tail(s, 99); p != 95 || v != 475 {
		t.Errorf("tail(1..500, 99) = p%v %v, want p95 475", p, v)
	}
	if p, v := tail(s, 90); p != 90 || v != 450 {
		t.Errorf("tail(1..500, 90) = p%v %v, want p90 450", p, v)
	}
}

func TestTrimmedMeanDropsTheTopButFollowsTheMix(t *testing.T) {
	if got := trimmedMean([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 1000}); !near(got, 5) {
		t.Errorf("trimmedMean = %v, want 5 (the top one of ten dropped)", got)
	}
	if got := trimmedMean([]float64{3, 1000, 1}); !near(got, 2) {
		t.Errorf("trimmedMean of three = %v, want 2", got)
	}
	if got := trimmedMean([]float64{4, 8}); !near(got, 6) {
		t.Errorf("trimmedMean of two = %v, want the plain mean 6", got)
	}
	// Units are either fast (1) or slow (2): the trimmed mean rises with
	// the share of slow ones instead of jumping at one half.
	mix := func(slow int) float64 {
		xs := make([]float64, 40)
		for i := range xs {
			xs[i] = 1
			if i < slow {
				xs[i] = 2
			}
		}
		return trimmedMean(xs)
	}
	if !(mix(0) < mix(12) && mix(12) < mix(20) && mix(20) < mix(28) && mix(28) < mix(40)) {
		t.Errorf("trimmedMean does not follow the mix: %v %v %v %v %v", mix(0), mix(12), mix(20), mix(28), mix(40))
	}
}

func TestUndisturbedIsThePerOperationTrimmedMean(t *testing.T) {
	// Two operations, four passes; one pass of each was hit by a stall.
	ss := []sample{
		{ops: []float64{10, 20}},
		{ops: []float64{10, 500}},
		{ops: []float64{900, 20}},
		{ops: []float64{10, 20}},
	}
	got := undisturbed(ss)
	if len(got) != 2 || !near(got[0], 10) || !near(got[1], 20) {
		t.Errorf("undisturbed = %v ms, want [10 20]: the stalled pass of each operation dropped", got)
	}
}

func TestSpread(t *testing.T) {
	if got := spread(9, 10, 12); !near(got, 0.3) {
		t.Errorf("spread = %v, want 0.3", got)
	}
	if spread(1, 0, 2) != 0 {
		t.Error("spread over a zero median should be 0, not Inf")
	}
}

// The digest of a value with maps must not depend on the order the maps
// were filled or are iterated in.
func TestDigestStableUnderMapOrder(t *testing.T) {
	type outcome struct {
		Recovered bool
		Actions   map[string]int
		Nested    map[string]map[string]int
	}
	keys := []string{"A1", "A2", "A3", "B1", "B2", "B3", "reboot", "notice"}
	build := func(order []int) outcome {
		o := outcome{Recovered: true, Actions: map[string]int{}, Nested: map[string]map[string]int{}}
		for _, i := range order {
			o.Actions[keys[i]] = i
			o.Nested[keys[i]] = map[string]int{}
			for _, j := range order {
				o.Nested[keys[i]][keys[j]] = i * j
			}
		}
		return o
	}
	order := []int{0, 1, 2, 3, 4, 5, 6, 7}
	want := digest(build(order))
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 50; round++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		if got := digest(build(order)); got != want {
			t.Fatalf("digest changed with map fill order %v", order)
		}
	}
	other := build(order)
	other.Actions["A1"]++
	if digest(other) == want {
		t.Error("digest did not change with the value")
	}
}

func TestTimeOpCountsAllocations(t *testing.T) {
	var keep []byte
	c := timeOp(nil, func(int) { keep = make([]byte, 64) })
	_ = keep
	if c.allocs < 0.9 || c.allocs > 1.1 {
		t.Errorf("allocs per op = %v, want 1", c.allocs)
	}
	if c.ns <= 0 {
		t.Errorf("ns per op = %v, want > 0", c.ns)
	}
	prepared := 0
	timeOp(func(n int) { prepared = n }, func(i int) {
		if i >= prepared {
			t.Fatalf("op index %d beyond the prepared batch of %d", i, prepared)
		}
	})
}

func TestSortedCopyLeavesInput(t *testing.T) {
	in := []float64{3, 1, 2}
	out := sortedCopy(in)
	if !sort.Float64sAreSorted(out) || in[0] != 3 {
		t.Errorf("sortedCopy(%v) = %v", in, out)
	}
}
