package metrics

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func secs(vs ...float64) *Series {
	s := NewSeries()
	for _, v := range vs {
		s.Add(time.Duration(v * float64(time.Second)))
	}
	return s
}

func TestPercentiles(t *testing.T) {
	s := secs(1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	if got := s.Median(); got != 5*time.Second {
		t.Fatalf("median = %v", got)
	}
	if got := s.Percentile(90); got != 9*time.Second {
		t.Fatalf("p90 = %v", got)
	}
	if got := s.Percentile(100); got != 10*time.Second {
		t.Fatalf("p100 = %v", got)
	}
	if got := s.Percentile(1); got != time.Second {
		t.Fatalf("p1 = %v", got)
	}
	if got := s.Max(); got != 10*time.Second {
		t.Fatalf("max = %v", got)
	}
	if got := s.Mean(); got != 5500*time.Millisecond {
		t.Fatalf("mean = %v", got)
	}
}

// Min is the smallest sample at any length. The 1st percentile is not: by
// nearest rank it is the second-smallest once a series holds 101 samples.
func TestMinIsSmallestSample(t *testing.T) {
	s := NewSeries()
	for i := 101; i >= 1; i-- {
		s.Add(time.Duration(i) * time.Second)
	}
	if got := s.Min(); got != time.Second {
		t.Fatalf("min of 1..101 s = %v, want 1s", got)
	}
	if got := s.Percentile(1); got != 2*time.Second {
		t.Fatalf("p1 of 1..101 s = %v, want the second-smallest, 2s", got)
	}
}

func TestEmptySeries(t *testing.T) {
	s := NewSeries()
	if s.Median() != 0 || s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Fatal("empty series should return zeros")
	}
	if s.CDF() != nil {
		t.Fatal("empty CDF should be nil")
	}
}

func TestCDF(t *testing.T) {
	s := secs(1, 1, 2, 4)
	pts := s.CDF()
	want := []CDFPoint{
		{time.Second, 0.5},
		{2 * time.Second, 0.75},
		{4 * time.Second, 1.0},
	}
	if len(pts) != len(want) {
		t.Fatalf("CDF = %v", pts)
	}
	for i := range want {
		if pts[i] != want[i] {
			t.Fatalf("CDF[%d] = %v, want %v", i, pts[i], want[i])
		}
	}
}

func TestBatteryModelReproducesPaperNumbers(t *testing.T) {
	elapsed := 30 * time.Minute

	baseline := Drain(elapsed, 0, 0)
	if math.Abs(baseline-5.4) > 0.01 {
		t.Fatalf("baseline 30-min drain = %.2f%%, want 5.4%%", baseline)
	}
	// SEED stress test: 1 diagnosis/s for 30 min.
	seed := Drain(elapsed, 1800, 0)
	if over := seed - baseline; math.Abs(over-1.2) > 0.15 {
		t.Fatalf("SEED overhead = %.2f%%, want ≈1.2%%", over)
	}
	// MobileInsight: continuous diag-port decoding (~100 msg/s).
	mi := Drain(elapsed, 0, 100*1800)
	if over := mi - baseline; math.Abs(over-8.5) > 0.5 {
		t.Fatalf("MobileInsight overhead = %.2f%%, want ≈8.5%%", over)
	}
}

func TestCPUModelShape(t *testing.T) {
	attachRate := 200.0 // 200 emulated UEs cycling
	base := Utilization(attachRate, 0, false)
	if base < 25 || base > 40 {
		t.Fatalf("baseline floor = %.1f%%, want ≈30%%", base)
	}
	at100 := Utilization(attachRate, 100, false)
	seedAt100 := Utilization(attachRate, 100, true)
	over := seedAt100 - at100
	if math.Abs(over-4.7) > 0.3 {
		t.Fatalf("SEED CPU overhead at 100 failures/s = %.2f%%, want ≈4.7%%", over)
	}
	// Monotone in failure rate, capped at 100.
	if Utilization(attachRate, 50, true) >= seedAt100 {
		t.Fatal("utilization not increasing in failure rate")
	}
	if Utilization(1e6, 1e6, true) != 100 {
		t.Fatal("utilization not capped at 100")
	}
}

// Property: Percentile is monotone in p and bounded by [min, max].
func TestPropertyPercentileMonotone(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		s := NewSeries()
		for _, v := range raw {
			s.Add(time.Duration(v))
		}
		sorted := append([]uint32(nil), raw...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		prev := time.Duration(-1)
		for p := 1.0; p <= 100; p += 7 {
			v := s.Percentile(p)
			if v < prev || v < time.Duration(sorted[0]) || v > time.Duration(sorted[len(sorted)-1]) {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
