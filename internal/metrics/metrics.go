// Package metrics provides the measurement helpers the evaluation uses:
// percentile/CDF summaries for the tables and figures, and the analytic
// battery and CPU models that replace the physical power and load
// measurements of §7.2.1.
package metrics

import (
	"sort"
	"time"
)

// Series is a collection of duration samples.
type Series struct {
	samples []time.Duration
	sorted  bool
}

// NewSeries creates an empty sample series.
func NewSeries() *Series { return &Series{} }

// Add appends a sample.
func (s *Series) Add(d time.Duration) {
	s.samples = append(s.samples, d)
	s.sorted = false
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.samples) }

func (s *Series) sort() {
	if !s.sorted {
		sort.Slice(s.samples, func(i, j int) bool { return s.samples[i] < s.samples[j] })
		s.sorted = true
	}
}

// Percentile returns the p-th percentile (0 < p <= 100) using
// nearest-rank. It returns 0 for an empty series.
func (s *Series) Percentile(p float64) time.Duration {
	if len(s.samples) == 0 {
		return 0
	}
	s.sort()
	rank := int(p/100*float64(len(s.samples))+0.9999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s.samples) {
		rank = len(s.samples) - 1
	}
	return s.samples[rank]
}

// Median returns the 50th percentile.
func (s *Series) Median() time.Duration { return s.Percentile(50) }

// Mean returns the arithmetic mean.
func (s *Series) Mean() time.Duration {
	if len(s.samples) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range s.samples {
		sum += d
	}
	return sum / time.Duration(len(s.samples))
}

// Min returns the smallest sample.
func (s *Series) Min() time.Duration {
	if len(s.samples) == 0 {
		return 0
	}
	s.sort()
	return s.samples[0]
}

// Max returns the largest sample.
func (s *Series) Max() time.Duration {
	if len(s.samples) == 0 {
		return 0
	}
	s.sort()
	return s.samples[len(s.samples)-1]
}

// CDF returns (x, F(x)) pairs at each distinct sample, suitable for
// plotting Figure 2/3-style curves.
func (s *Series) CDF() []CDFPoint {
	if len(s.samples) == 0 {
		return nil
	}
	s.sort()
	var out []CDFPoint
	n := float64(len(s.samples))
	for i, d := range s.samples {
		if i+1 < len(s.samples) && s.samples[i+1] == d {
			continue
		}
		out = append(out, CDFPoint{X: d, F: float64(i+1) / n})
	}
	return out
}

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	X time.Duration
	F float64
}
