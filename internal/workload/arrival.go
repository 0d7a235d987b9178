package workload

import (
	"math"
	"math/rand"
	"time"
)

// arrivalSampler walks one device's failure-event times through the
// horizon. Base interarrivals come from the configured renewal process at
// the nominal rate; the diurnal curve and storm bursts then locally
// compress or stretch time (an interarrival sampled while the rate is k×
// nominal takes 1/k of the base duration). The approximation anchors the
// multiplier at the interval's start, which keeps sampling strictly
// sequential — and therefore deterministic — for any curve.
type arrivalSampler struct {
	spec *ArrivalSpec
	rng  *rand.Rand
	now  time.Duration
}

func newArrivalSampler(spec *ArrivalSpec, rng *rand.Rand) *arrivalSampler {
	return &arrivalSampler{spec: spec, rng: rng}
}

// next returns the next event time, advancing the sampler.
func (s *arrivalSampler) next() time.Duration {
	base := s.baseInterarrival()
	mult := s.spec.rateMult(s.now)
	if mult <= 0 {
		mult = 1
	}
	s.now += time.Duration(float64(base) / mult)
	return s.now
}

// baseInterarrival samples one interarrival at the nominal rate.
func (s *arrivalSampler) baseInterarrival() time.Duration {
	meanMin := 1 / s.spec.RatePerMin
	var draw float64 // in units of the mean
	switch s.spec.Process {
	case "gamma":
		// Gamma(k, θ) with mean kθ = 1: θ = 1/k.
		draw = sampleGamma(s.rng, s.spec.Shape) / s.spec.Shape
	case "weibull":
		// Weibull(k, λ) with mean λΓ(1+1/k) = 1.
		k := s.spec.Shape
		lambda := 1 / math.Gamma(1+1/k)
		draw = lambda * math.Pow(-math.Log(1-s.rng.Float64()), 1/k)
	default: // poisson
		draw = s.rng.ExpFloat64()
	}
	d := time.Duration(draw * meanMin * float64(time.Minute))
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

// rateMult evaluates the diurnal curve × any active storm at t.
func (a *ArrivalSpec) rateMult(t time.Duration) float64 {
	minutes := t.Minutes()
	mult := 1.0
	for _, pt := range a.Diurnal {
		if pt.AtMin <= minutes {
			mult = pt.Mult
		} else {
			break
		}
	}
	for _, st := range a.Storms {
		if st.AtMin <= minutes && minutes < st.AtMin+st.DurMin {
			mult *= st.Mult
		}
	}
	return mult
}

// sampleGamma draws Gamma(shape, 1) via Marsaglia–Tsang, with the
// standard boost for shape < 1.
func sampleGamma(rng *rand.Rand, shape float64) float64 {
	if shape < 1 {
		// Gamma(a) = Gamma(a+1) · U^(1/a).
		return sampleGamma(rng, shape+1) * math.Pow(1-rng.Float64(), 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := 1 - rng.Float64() // (0, 1]
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// SampleHeal draws the entry's self-heal time: lognormal with median
// HealMedianMS and sigma HealSigma (one rng.NormFloat64), at least 1 ms.
// An entry without a median never self-heals (0, no draw).
func (m CauseMix) SampleHeal(rng *rand.Rand) time.Duration {
	if m.HealMedianMS <= 0 {
		return 0
	}
	median := time.Duration(m.HealMedianMS * float64(time.Millisecond))
	v := float64(median) * math.Exp(rng.NormFloat64()*m.HealSigma)
	if v < float64(time.Millisecond) {
		v = float64(time.Millisecond)
	}
	return time.Duration(v)
}
