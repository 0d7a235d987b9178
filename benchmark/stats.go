package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
)

// summary is what every reported metric carries besides its value: the
// quartiles and the number of samples (passes, repetitions or operations)
// the value is the median of. A derived metric (a ratio of two medians, a
// count) has N == 1 and Q1 == Q3 == Value. Raw, when set, is the value
// before calibration (see calibrate).
type summary struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
	Raw   float64 `json:"raw,omitempty"`
}

func scalar(v float64, unit string) summary {
	return summary{Value: v, Unit: unit, Q1: v, Q3: v, N: 1}
}

// summarize reports the median and quartiles of xs. xs is not modified.
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	q1, med, q3 := quartiles(sortedCopy(xs))
	return summary{Value: med, Q1: q1, Q3: q3, N: len(xs)}
}

// withRaw notes the median of the uncalibrated readings beside s.
func (s summary) withRaw(raw []float64) summary {
	s.Raw = median(raw)
	return s
}

// median returns the middle value of xs (mean of the middle two for even
// lengths); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	_, m, _ := quartiles(sortedCopy(xs))
	return m
}

// quartiles returns the three cut points of sorted the way Python's
// statistics.quantiles(values, n=4) does (the "exclusive" method: the
// i-th cut sits at position i·(n+1)/4, interpolated linearly between the
// two neighbouring samples — or extrapolated from the outermost two when
// it falls outside them, as with two or three samples), so a spread
// computed here reads the same as one a pipeline computes in Python. With
// one sample all three are it.
func quartiles(sorted []float64) (q1, q2, q3 float64) {
	n := len(sorted)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return sorted[0], sorted[0], sorted[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1)) - float64(j*4)
		return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile range as a share of the median — the
// run-to-run noise figure bounds are judged against.
func spread(q1, med, q3 float64) float64 {
	if med == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(med)
}

// percentile returns the p-th percentile (0 < p <= 100) of sorted by
// nearest rank; 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p/100*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	return sorted[rank]
}

// tailPercentiles are the tail cut points a latency may be reported at,
// highest first, each with the fewest samples that leave ten beyond it.
var tailPercentiles = []struct {
	p    float64
	need int
}{{99.9, 10000}, {99, 1000}, {95, 200}, {90, 100}, {75, 40}}

// supportedTail returns the highest percentile that still has at least
// ten samples beyond it among n samples, or 50 when not even p75
// qualifies: a tail read off fewer than ten samples is one slow request,
// not a percentile.
func supportedTail(n int) float64 {
	for _, t := range tailPercentiles {
		if n >= t.need {
			return t.p
		}
	}
	return 50
}

// tail returns the requested percentile of sorted, lowered to the highest
// one the sample count supports (see supportedTail).
func tail(sorted []float64, want float64) (p, v float64) {
	p = math.Min(want, supportedTail(len(sorted)))
	return p, percentile(sorted, p)
}

// digest is the hex SHA-256 of v's canonical JSON. encoding/json writes
// struct fields in declaration order and map keys sorted, so two values
// that are equal digest equally whatever order their maps were built or
// are iterated in.
func digest(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic("benchmark: digest of unmarshalable value: " + err.Error())
	}
	return digestBytes(b)
}

func digestBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
