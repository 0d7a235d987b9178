package main

import (
	"fmt"
	"time"
)

// setupRepeats is how often a workload sets up in one run; setup_s is the
// median. The first set-up also boots whatever the program caches for the
// life of the process (prototype pools), the later ones find it warm.
const setupRepeats = 5

// minPasses is the fewest measured passes per lane, however short the
// time allowance.
const minPasses = 3

// sample is one timed pass, in the terms every workload shares.
type sample struct {
	wall  time.Duration
	cpu   time.Duration // CPU of the process under test over the pass
	rssMB float64       // resident set of the process under test
	// ops are the durations of the pass's operations in ms, operation i
	// being the same work in every pass of the lane; width is how many
	// ran side by side (workers, callers).
	ops   []float64
	width int
	steal float64 // seconds the hypervisor took from the guest's CPUs during the pass
}

// lanes is what the measured part of a run yields: the set-ups (seconds),
// the passes of the narrow lane (one worker) and of the wide one (N), and
// how fast the box was meanwhile.
type lanes struct {
	setups []float64
	w1, wN []sample
	// factor is the run's CPU calibration: the trimmed mean of the
	// calibration units over calibNominal. Above 1 the box ran slower
	// than nominal; every time of the run is divided by it.
	factor float64
	// drift is the last quarter of the units over the first, minus 1:
	// how much the box changed speed while the run lasted.
	drift float64
}

// calibNominal is what one calibration unit takes on the box the
// benchmark was sized on, in its undisturbed state. Every reported time is
// divided by (unit time ÷ calibNominal), so results read as if taken on
// that box. The constant only fixes the unit: changing it rescales every
// time-based metric of every workload alike, so it must stay as it is for
// results to remain comparable across commits.
const calibNominal = 1875 * time.Microsecond

// unitsPerSlice calibration units make one slice (about 30 ms).
const unitsPerSlice = 16

// calibSink keeps the calibration loop's work live.
var calibSink uint64

// calibrate times a slice of calibration units — each a fixed piece of
// work shaped like the simulator's own: hashing into a map, chasing
// pointers, leaving garbage, about 2 ms — and appends the unit times (ns).
//
// Why it exists: on a shared box the same code runs 10–40 % slower
// whenever a neighbour is busy, for minutes at a time, so two sets of runs
// of one commit differ by more than any useful bound. Slices taken before
// every set-up and every pass sample the box's speed over the very
// interval the passes ran in; dividing by it removes most of that drift.
// It cannot remove what does not scale with CPU speed (fsync latency, the
// wake-up latency of an idle core), which is why no workload's end-to-end
// metrics wait for either.
func calibrate(units []float64) []float64 {
	for r := 0; r < unitsPerSlice; r++ {
		start := time.Now()
		m := make(map[uint64]*[4]uint64, 1024)
		x := uint64(88172645463325252)
		for i := 0; i < 100000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			k := x & 1023
			p := m[k]
			if p == nil || i&7 == 0 {
				p = new([4]uint64)
				m[k] = p
			}
			p[i&3] += x
		}
		calibSink += uint64(len(m))
		units = append(units, float64(time.Since(start).Nanoseconds()))
	}
	return units
}

// trimmedMean is the mean of xs without its highest tenth (at least one
// sample, unless there are fewer than three). Disturbances only ever add
// time — the hypervisor takes the core away for some milliseconds — and
// operations and calibration units are short, so a stolen stretch lands in
// few of them: dropping the top removes it. What is left is averaged, not
// medianed, because the box has a fast and a slow state (a busy sibling
// hyperthread halves its speed) and a long pass costs their mix; a median
// would jump from one state's time to the other's once the mix crosses a
// half.
func trimmedMean(xs []float64) float64 {
	s := sortedCopy(xs)
	keep := len(s) - (len(s)+9)/10
	if len(s) < 3 {
		keep = len(s)
	}
	sum := 0.0
	for _, x := range s[:keep] {
		sum += x
	}
	return sum / float64(keep)
}

// measure is the frame every workload runs in: setup (inputs from the
// seed, a warm-up pass) several times over, then passes alternating
// between the two lanes until the share of the run's time allowance is
// used, so that drift of the box hits both lanes alike. A calibration
// slice precedes every set-up and every pass, and one closes the run.
func (c *runCtx) measure(share float64, setUp func() error, pass func(wide bool) (sample, error)) (lanes, error) {
	var l lanes
	var units []float64
	for i := 0; i < setupRepeats; i++ {
		units = calibrate(units)
		start := time.Now()
		if err := setUp(); err != nil {
			return l, err
		}
		l.setups = append(l.setups, time.Since(start).Seconds())
	}
	for b := c.measureFor(share); len(l.w1) < minPasses || b.left(); {
		for _, wide := range []bool{false, true} {
			units = calibrate(units)
			steal0 := stolenSeconds()
			s, err := pass(wide)
			if err != nil {
				return l, err
			}
			s.steal = stolenSeconds() - steal0
			if wide {
				l.wN = append(l.wN, s)
			} else {
				l.w1 = append(l.w1, s)
			}
		}
	}
	units = calibrate(units)
	l.factor = trimmedMean(units) / float64(calibNominal.Nanoseconds())
	quarter := len(units) / 4
	l.drift = trimmedMean(units[len(units)-quarter:])/trimmedMean(units[:quarter]) - 1
	c.res.Samples["calib_unit_ns"] = units
	return l, nil
}

// walls returns the passes' wall times in seconds, as measured.
func walls(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.wall.Seconds()
	}
	return out
}

// medianWall is the lane's median pass wall as measured, in seconds.
func medianWall(ss []sample) float64 { return median(walls(ss)) }

// undisturbed estimates what each operation of the lane takes when
// nothing takes the cores away, in ms as measured: operation i's duration,
// trimmed-averaged across the passes. (The wall of a pass also holds
// whatever stretches the hypervisor gave the cores to someone else — on a
// bad quarter of an hour that doubles it.)
func undisturbed(ss []sample) []float64 {
	across := make([]float64, len(ss))
	out := make([]float64, len(ss[0].ops))
	for i := range out {
		for p, s := range ss {
			across[p] = s.ops[i]
		}
		out[i] = trimmedMean(across)
	}
	return out
}

func mapped(xs []float64, f func(float64) float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// endToEnd reports the metrics of the untraced run from passes of
// opsPerPass operations each. Every time is divided by the run's
// calibration factor (rates multiplied); the uncalibrated median is kept
// beside each.
func (c *runCtx) endToEnd(opsPerPass int, l lanes) {
	ops := float64(opsPerPass)
	perSecond := func(wall float64) float64 { return ops / wall }
	calibrated := func(xs []float64) []float64 {
		return mapped(xs, func(x float64) float64 { return x / l.factor })
	}

	c.res.set("setup_s", summarize(calibrated(l.setups)).withRaw(l.setups))
	c.res.Samples["setup_s"] = l.setups
	// The quartiles and the count are those of the passes' walls; the
	// value is operations over the undisturbed pass: the operations'
	// undisturbed durations summed, over the number that ran side by side.
	for _, lane := range []struct {
		name string
		ss   []sample
	}{{"w1", l.w1}, {"wN", l.wN}} {
		raw := walls(lane.ss)
		s := summarize(mapped(calibrated(raw), perSecond)).withRaw(mapped(raw, perSecond))
		s.Value = perSecond(sum(undisturbed(lane.ss)) / 1e3 / float64(lane.ss[0].width) / l.factor)
		c.res.set("ops_per_s_"+lane.name, s)
		c.res.Samples[lane.name+"_wall_s"] = raw
	}

	// op_p50_ms likewise: quartiles of the per-pass medians, value the
	// median of the operations' undisturbed durations. cpu_ms_per_op is
	// the trimmed mean over pairs of one narrow and one wide pass of the
	// CPU both took, per operation.
	n := len(l.w1)
	p50s, cpus := make([]float64, n), make([]float64, n)
	var rss []float64
	for i, s := range l.w1 {
		wide := l.wN[i]
		p50s[i] = median(s.ops)
		cpus[i] = float64((s.cpu + wide.cpu).Nanoseconds()) / 1e6 / (2 * ops)
		rss = append(rss, s.rssMB, wide.rssMB)
	}
	p50 := summarize(calibrated(p50s)).withRaw(p50s)
	p50.Value = median(undisturbed(l.w1)) / l.factor
	c.res.set("op_p50_ms", p50)
	cpu := summarize(calibrated(cpus)).withRaw(cpus)
	cpu.Value = trimmedMean(cpus) / l.factor
	c.res.set("cpu_ms_per_op", cpu)
	c.res.set("rss_mb", summarize(rss))
	c.res.setValue("env.calib_factor", l.factor)
	c.res.setValue("env.spin_drift", l.drift)
	c.res.Calibration = l.factor
	if l.drift > 0.10 || l.drift < -0.10 {
		c.res.Notes = append(c.res.Notes, fmt.Sprintf("noisy run: the calibration units took %+.0f%% at the end of the run against its beginning", l.drift*100))
	}

	stolen, wall := 0.0, 0.0
	for _, s := range append(append([]sample{}, l.w1...), l.wN...) {
		stolen += s.steal
		wall += s.wall.Seconds()
	}
	c.res.setValue("env.steal_share", stolen/wall)
}
