package workload

import (
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/seed5g/seed/internal/cause"
)

// The published targets a corpus is scored against. Table 1 lists the top
// cause shares over all failures; Figure 2 gives the legacy-handling
// disruption CDF. The CDF targets anchor at the milestones the paper
// quotes explicitly (F(2 s), F(10 s), the medians) plus interpolated
// knee/tail points consistent with the figure's shape — they are probe
// points for KS/Pearson scoring, not a curve fit. The tests hold
// DefaultSpec, the spec every program runs, within a fixed bound on each
// score (TestDefaultSpecMixWithinGate here, TestDefaultSpecFigure2Shape in
// the root package).

// TargetShare is one Table 1 row: cause label (plane/code) and its share
// of all failures.
type TargetShare struct {
	Label string  `json:"label"`
	Share float64 `json:"share"`
}

// Table1Targets are the published top-6 cause shares.
var Table1Targets = []TargetShare{
	{fmt.Sprintf("control/%d", cause.MMUEIdentityCannotBeDerived), 0.152},
	{fmt.Sprintf("control/%d", cause.MMNoSuitableCellsInTA), 0.126},
	{fmt.Sprintf("control/%d", cause.MMPLMNNotAllowed), 0.103},
	{fmt.Sprintf("data/%d", cause.SMServiceOptionNotSubscribed), 0.079},
	{fmt.Sprintf("data/%d", cause.SMInvalidMandatoryInfo), 0.059},
	{fmt.Sprintf("data/%d", cause.SMUserAuthFailed), 0.047},
}

// ControlShareTarget is the published control/data plane split.
const ControlShareTarget = 0.562

// CDFTarget is one probe point of a disruption CDF target.
type CDFTarget struct {
	AtSec float64 `json:"at_sec"`
	F     float64 `json:"f"`
}

// Figure2ControlTargets probe the control-plane legacy CDF (anchors:
// F(2)=0.19, F(10)=0.27, median 12.4 s).
var Figure2ControlTargets = []CDFTarget{
	{2, 0.19}, {10, 0.27}, {12.4, 0.50}, {60, 0.62}, {300, 0.72}, {1200, 0.84},
}

// Figure2DataTargets probe the data-plane legacy CDF (anchors: F(10)=0.09,
// median ≈476 s).
var Figure2DataTargets = []CDFTarget{
	{10, 0.09}, {60, 0.18}, {300, 0.41}, {476, 0.50}, {1200, 0.65}, {2659, 0.90},
}

// MixScores computes the Table 1 marginal errors of a compiled corpus: the
// mean absolute percentage error of its cause shares against
// Table1Targets, and |control share − ControlShareTarget|.
func MixScores(cells []Cell) (mape, planeErr float64) {
	st := StatsOf(cells, nil)
	shares := make(map[string]float64, len(st.Causes))
	for _, c := range st.Causes {
		shares[c.Cause] = c.Share
	}
	sum := 0.0
	for _, t := range Table1Targets {
		sum += math.Abs(shares[t.Label]-t.Share) / t.Share
	}
	return sum / float64(len(Table1Targets)), math.Abs(st.ControlShare - ControlShareTarget)
}

// CDFScores scores measured legacy disruption durations against the
// Figure 2 probe targets: the Kolmogorov–Smirnov distance (sup over probe
// points) per plane, and the Pearson correlation of measured against
// target CDF values over the probe points of both planes.
// Durations hold only recovered cases; totals count all replayed cases of
// the plane, so the empirical CDF — like Figure 2's — never reaches 1
// when some cases stay down.
func CDFScores(control, data []time.Duration, controlTotal, dataTotal int) (ksControl, ksData, pearson float64) {
	var model, target []float64
	eval := func(durs []time.Duration, total int, probes []CDFTarget) float64 {
		sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
		ks := 0.0
		for _, p := range probes {
			f := 0.0
			if total > 0 {
				at := time.Duration(p.AtSec * float64(time.Second))
				n := sort.Search(len(durs), func(i int) bool { return durs[i] > at })
				f = float64(n) / float64(total)
			}
			model = append(model, f)
			target = append(target, p.F)
			if d := math.Abs(f - p.F); d > ks {
				ks = d
			}
		}
		return ks
	}
	ksControl = eval(control, controlTotal, Figure2ControlTargets)
	ksData = eval(data, dataTotal, Figure2DataTargets)
	return ksControl, ksData, pearsonR(model, target)
}

// pearsonR is the sample Pearson correlation coefficient.
func pearsonR(xs, ys []float64) float64 {
	n := float64(len(xs))
	if n < 2 {
		return 0
	}
	var mx, my float64
	for i := range xs {
		mx += xs[i]
		my += ys[i]
	}
	mx /= n
	my /= n
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}
