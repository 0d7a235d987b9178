package seed

import (
	"fmt"
	"strings"
	"time"

	"github.com/seed5g/seed/internal/cause"
	"github.com/seed5g/seed/internal/core"
	"github.com/seed5g/seed/internal/metrics"
	"github.com/seed5g/seed/internal/runner"
	"github.com/seed5g/seed/internal/sched"
	"github.com/seed5g/seed/internal/workload"
)

// benignDiag is a congestion notice with zero wait: it exercises the full
// collaboration channel without triggering any reset.
func benignDiag() core.DiagMessage {
	return core.DiagMessage{Kind: core.DiagCongestion, Plane: cause.ControlPlane, Code: 22}
}

// This file hosts the experiment runners that regenerate every table and
// figure of the paper's evaluation (§7). Each returns plain result structs
// plus a Render method producing the text form Evaluation prints.
// EXPERIMENTS.md records paper-vs-measured for each.

// Modes lists the three evaluated schemes in table order.
var Modes = []Mode{ModeLegacy, ModeSEEDU, ModeSEEDR}

// ---------------------------------------------------------------------------
// Table 4 — disruption percentiles per failure class and scheme
// ---------------------------------------------------------------------------

// DisruptionRow is one cell group of Table 4.
type DisruptionRow struct {
	Class   string // "Control Plane", "Data Plane", "Data Delivery"
	Mode    Mode
	Median  time.Duration
	P90     time.Duration
	Samples int
	Unrecov int // cases not recovered inside the replay window
}

// Table4Result holds the full table.
type Table4Result struct {
	Rows []DisruptionRow
}

// planeOf names a management case's plane as the tables group it.
func planeOf(fc FailureCase) string {
	if fc.ControlPlane {
		return "control"
	}
	return "data"
}

// causeKey is the causes table's key for a management case: "control/9".
func causeKey(fc FailureCase) string { return fmt.Sprintf("%s/%d", planeOf(fc), fc.CauseCode) }

// caseSeed derives the seed every table runs a dataset case's cells on:
// family is 0 for the control plane's management cases, 1 for the data
// plane's and 2 for the delivery cases, pos the case's position among its
// family's cases in corpus order. The modes share it (a paired comparison).
func caseSeed(root int64, family uint64, pos int) int64 {
	return sched.DeriveSeed(root, cellKey(family, pos))
}

// CountedCell is one dataset cell as the tables count it: which case it is,
// the mode and seed they run it on, its full result, and the rows that
// count it.
type CountedCell struct {
	// Plane is "control" or "data" for a management case, "delivery" for a
	// delivery case. Position is the case's position among its plane's cases
	// in corpus order: a table run at -samples n counts the cell when
	// Position < n.
	Plane    string
	Position int
	Mode     Mode
	Seed     int64
	// Failure and Management are a management cell's case and result,
	// Delivery and Handling a delivery cell's.
	Failure    FailureCase
	Management ReplayResult
	Delivery   DeliveryCase
	Handling   DeliveryReplayResult
	// Recovered and Value are what Table 4 folds: the Disruption of a
	// management cell, the HandlingTime of a delivery cell.
	Recovered bool
	Value     time.Duration
	// Table4Row and CausesRow name the rows that count the cell, "" where
	// none does: Table 4 leaves out user-action cases and the delivery kinds
	// legacy cannot fix, and the causes table has no delivery rows.
	Table4Row string
	CausesRow string
}

// run runs the cell — its case under its mode on its seed, as the trial
// every table runs — with a Timeline handing emit the cell's events
// installed when emit is not nil, and fills in its result and the rows that
// count it. The grid and Dataset.WatchCell both run cells through it.
func (c CountedCell) run(emit func(TimelineEvent)) CountedCell {
	row := table4Class[c.Plane] + " " + c.Mode.String()
	if c.Plane == "delivery" {
		c.Handling = watchedTrial(deliveryTrial(c.Delivery, c.Mode), emit).run(c.Seed)
		c.Recovered, c.Value = c.Handling.Recovered, c.Handling.HandlingTime
		if deliveryCounted(c.Delivery, c.Mode) {
			c.Table4Row = row
		}
		return c
	}
	cr := caseCellRun(c.Failure)
	c.Management = watchedTrial(trial[ReplayResult]{cr.from(c.Mode), cr.measure}, emit).run(c.Seed)
	c.Recovered, c.Value = c.Management.Recovered, c.Management.Disruption
	if c.Failure.Scenario != ScenarioUserAction {
		c.Table4Row = row
	}
	c.CausesRow = causeKey(c.Failure) + " " + c.Mode.String()
	return c
}

// DatasetGrid is one replay of every dataset cell a table counts. Table 4,
// Figure 2, the per-cause breakdown and the §7.1.1 coverage are statistics
// of the same replayed cases — the paper reads them from one dataset — so
// they are folds of the grid: each reads the cells it reports on and runs
// nothing. Nothing caches a grid: whoever wants to share one holds it.
type DatasetGrid struct {
	// cells holds the management cells in (plane, case, mode) order, control
	// plane first, then the delivery cells in (mode, case) order.
	cells []CountedCell
}

// ReplayDatasetGrid replays, on p, the first n management cases of each
// plane (the first in corpus order, which is already randomized, so the
// sample keeps the dataset's scenario mix) under all three modes,
// user-action cases included, and the first n delivery cases under every
// mode Table 4 counts them in. The modes replay a case on the same derived
// seed (a paired comparison).
func ReplayDatasetGrid(p *runner.Pool, ds *Dataset, n int, seedVal int64) DatasetGrid {
	var planes [2][]FailureCase
	for _, fc := range ds.Failures() {
		family := 1
		if fc.ControlPlane {
			family = 0
		}
		if len(planes[family]) < n {
			planes[family] = append(planes[family], fc)
		}
	}
	var cells []CountedCell
	for family, cases := range planes {
		for pos, fc := range cases {
			for _, mode := range Modes {
				cells = append(cells, CountedCell{Plane: planeOf(fc), Position: pos, Mode: mode,
					Seed: caseSeed(seedVal, uint64(family), pos), Failure: fc})
			}
		}
	}
	delivery := ds.Delivery()
	delivery = delivery[:min(n, len(delivery))]
	for _, mode := range Modes {
		for pos, dc := range delivery {
			if deliveryCounted(dc, mode) {
				cells = append(cells, CountedCell{Plane: "delivery", Position: pos, Mode: mode,
					Seed: caseSeed(seedVal, 2, pos), Delivery: dc})
			}
		}
	}
	return DatasetGrid{cells: runner.Map(p, len(cells), func(i int) CountedCell { return cells[i].run(nil) })}
}

// Cells returns how many cells the grid replayed.
func (g DatasetGrid) Cells() int { return len(g.cells) }

func disruptionRow(class string, mode Mode, series *metrics.Series, unrecov int) DisruptionRow {
	return DisruptionRow{
		Class: class, Mode: mode,
		Median:  series.Median(),
		P90:     series.Percentile(90),
		Samples: series.Len(),
		Unrecov: unrecov,
	}
}

// Table4 folds every cell a Table 4 row counts into the disruption
// percentiles of Table 4.
func (g DatasetGrid) Table4() Table4Result {
	acc := newTally()
	for _, c := range g.cells {
		if c.Table4Row != "" {
			acc.outcome(c.Table4Row, c.Recovered, c.Value)
		}
	}
	var res Table4Result
	for _, plane := range []string{"control", "data", "delivery"} {
		for _, mode := range Modes {
			row := table4Class[plane] + " " + mode.String()
			res.Rows = append(res.Rows, disruptionRow(table4Class[plane], mode, acc.get(row), acc.counts[row+"/unrecov"]))
		}
	}
	return res
}

// table4Class names Table 4's row classes by the plane a cell groups under.
var table4Class = map[string]string{"control": "Control Plane", "data": "Data Plane", "delivery": "Data Delivery"}

// deliveryCounted reports whether Table 4 counts a delivery case under the
// mode: the reconnection-fixable class for the legacy baseline (the only
// one it can recover), all kinds for SEED.
func deliveryCounted(dc DeliveryCase, mode Mode) bool {
	return mode != ModeLegacy || dc.Kind == DeliveryStalledGateway
}

// Render formats the table.
func (t Table4Result) Render() string {
	var b strings.Builder
	b.WriteString("Table 4: disruption (s) percentiles with legacy handling and SEED\n")
	fmt.Fprintf(&b, "%-14s %-8s %10s %10s %6s %6s\n", "Failures", "Handling", "Median", "90th", "n", "unrec")
	for _, r := range t.Rows {
		// A row no cell recovered in has no percentiles to print: a dash,
		// not a zero that reads as measured.
		median, p90 := "-", "-"
		if r.Samples > 0 {
			median, p90 = fmt.Sprintf("%.1f", r.Median.Seconds()), fmt.Sprintf("%.1f", r.P90.Seconds())
		}
		fmt.Fprintf(&b, "%-14s %-8s %10s %10s %6d %6d\n", r.Class, r.Mode, median, p90, r.Samples, r.Unrecov)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Figure 2 — disruption CDF with legacy modem handling
// ---------------------------------------------------------------------------

// CDFPoint is one point of an empirical CDF in seconds.
type CDFPoint struct {
	Seconds  float64
	Fraction float64
}

// Figure2Result holds the legacy-handling disruption CDFs.
type Figure2Result struct {
	Control []CDFPoint
	Data    []CDFPoint
	// ControlUnrecovered / DataUnrecovered are the fractions of cases
	// that never recovered inside the replay window (the CDF's gap to 1).
	ControlUnrecovered float64
	DataUnrecovered    float64
	// ControlN / DataN count the recoverable cases each curve is over. A
	// plane without one has no points and an unrecovered fraction of 0.
	ControlN int
	DataN    int
}

// Figure2 folds the grid's recoverable management cases under legacy
// handling into the disruption CDFs of Figure 2.
func (g DatasetGrid) Figure2() Figure2Result {
	acc := newTally()
	for _, c := range g.cells {
		if c.Plane == "delivery" || c.Mode != ModeLegacy || c.Failure.Scenario == ScenarioUserAction {
			continue
		}
		acc.counts[c.Plane+"/total"]++
		acc.outcome(c.Plane, c.Recovered, c.Value)
	}
	var res Figure2Result
	for _, plane := range []string{"control", "data"} {
		series := acc.get(plane)
		total := acc.counts[plane+"/total"]
		var pts []CDFPoint
		var unrec float64
		if total > 0 {
			scale := float64(series.Len()) / float64(total)
			for _, p := range series.CDF() {
				pts = append(pts, CDFPoint{Seconds: p.X.Seconds(), Fraction: p.F * scale})
			}
			unrec = float64(acc.counts[plane+"/unrecov"]) / float64(total)
		}
		if plane == "control" {
			res.Control, res.ControlUnrecovered, res.ControlN = pts, unrec, total
		} else {
			res.Data, res.DataUnrecovered, res.DataN = pts, unrec, total
		}
	}
	return res
}

// fractionAt returns the CDF value at x seconds.
func fractionAt(pts []CDFPoint, x float64) float64 {
	f := 0.0
	for _, p := range pts {
		if p.Seconds <= x {
			f = p.Fraction
		}
	}
	return f
}

// Render formats selected CDF milestones the paper quotes.
func (f Figure2Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 2: disruption CDF with legacy modem handling\n")
	line := func(name string, pts []CDFPoint, unrec float64, n int) {
		if n == 0 {
			fmt.Fprintf(&b, "  %-13s n=0\n", name)
			return
		}
		fmt.Fprintf(&b, "  %-13s F(2s)=%.2f F(10s)=%.2f F(60s)=%.2f F(600s)=%.2f unrecovered=%.2f\n",
			name, fractionAt(pts, 2), fractionAt(pts, 10), fractionAt(pts, 60),
			fractionAt(pts, 600), unrec)
	}
	line("control-plane", f.Control, f.ControlUnrecovered, f.ControlN)
	line("data-plane", f.Data, f.DataUnrecovered, f.DataN)
	return b.String()
}

// ---------------------------------------------------------------------------
// Figure 3 — Android failure detection latency
// ---------------------------------------------------------------------------

// LatencyStats summarizes a latency distribution for box-plot style output.
type LatencyStats struct {
	Label      string
	N          int
	Undetected int
	Min        time.Duration
	Median     time.Duration
	Mean       time.Duration
	P90        time.Duration
	Max        time.Duration
}

func statsFromSeries(label string, s *metrics.Series, undetected int) LatencyStats {
	return LatencyStats{
		Label: label, N: s.Len(), Undetected: undetected,
		Min: s.Min(), Median: s.Median(), Mean: s.Mean(),
		P90: s.Percentile(90), Max: s.Max(),
	}
}

// Figure3Result holds detection latency per blocked protocol.
type Figure3Result struct {
	TCP LatencyStats
	UDP LatencyStats
	DNS LatencyStats
}

// ExperimentFigure3 measures stock Android's data-stall detection latency
// for TCP, UDP and DNS blocking at the core (§3.3's experiment). UDP
// blocking here covers all UDP including DNS — the only way Android ever
// notices it.
func ExperimentFigure3(p *runner.Pool, samples int, seedVal int64) Figure3Result {
	kinds := []DeliveryFailureKind{DeliveryTCPBlock, DeliveryUDPBlock, DeliveryDNSOutage}
	// 3*samples independent cells; trial i shares its derived seed across
	// the three blocking kinds (paired comparison).
	lats := runner.Map(p, len(kinds)*samples, func(ci int) time.Duration {
		i := ci % samples
		return figure3Trial(kinds[ci/samples], i).run(sched.DeriveSeed(seedVal, cellKey(0, i)))
	})
	acc := newTally()
	for ci, lat := range lats {
		acc.outcome(kinds[ci/samples].String(), lat >= 0, lat)
	}
	stats := func(kind DeliveryFailureKind) LatencyStats {
		return statsFromSeries(kind.String(), acc.get(kind.String()),
			acc.counts[kind.String()+"/unrecov"])
	}
	return Figure3Result{
		TCP: stats(DeliveryTCPBlock),
		UDP: stats(DeliveryUDPBlock),
		DNS: stats(DeliveryDNSOutage),
	}
}

// figure3Trial is trial i of one blocking kind's detection-latency cells:
// from a legacy device with the video+web mix connected and generating
// traffic, block, and wait for the Android monitor to notice. It measures
// the detection latency (-1 when the monitor never noticed).
func figure3Trial(kind DeliveryFailureKind, i int) trial[time.Duration] {
	from := steady{family: familyFigure3, mode: ModeLegacy, apps: [3]AppKind{AppVideo, AppWeb}, start: true}
	return trial[time.Duration]{from, func(tb *Testbed, d *Device) time.Duration {
		if !d.Connected() {
			return -1
		}
		// Stagger onset within the monitor's polling period so the
		// latency distribution reflects the phase uniformly.
		tb.Advance(2*time.Minute + (time.Duration(i)*7919*time.Millisecond)%time.Minute)
		onset := tb.Now()
		switch kind {
		case DeliveryTCPBlock:
			tb.BlockTCP(d)
		case DeliveryUDPBlock:
			tb.BlockUDP(d)
			tb.SetDNSOutage(true)
		case DeliveryDNSOutage:
			tb.SetDNSOutage(true)
		}
		if !tb.await(d.inner.Mon.Stalled, 25*time.Minute) {
			return -1
		}
		return tb.Now() - onset
	}}
}

// Render formats the detection latency summary.
func (f Figure3Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 3: Android failure detection latency (s)\n")
	for _, s := range []LatencyStats{f.TCP, f.UDP, f.DNS} {
		fmt.Fprintf(&b, "  %-12s n=%d undetected=%d min=%.0f median=%.0f mean=%.0f p90=%.0f max=%.0f\n",
			s.Label, s.N, s.Undetected, s.Min.Seconds(), s.Median.Seconds(),
			s.Mean.Seconds(), s.P90.Seconds(), s.Max.Seconds())
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Table 5 — average app disruption per scheme
// ---------------------------------------------------------------------------

// AppDisruptionRow is one Table 5 cell.
type AppDisruptionRow struct {
	App    AppKind
	Class  string // "C-plane", "D-plane", "D-Delivery"
	Mode   Mode
	Mean   time.Duration // user-perceived (buffer-masked) disruption
	Outage time.Duration // raw network outage
}

// Table5Result holds the per-app disruption matrix.
type Table5Result struct {
	Rows []AppDisruptionRow
}

// ExperimentTable5 measures user-perceived app disruption for the five
// §7.1.2 applications under a representative failure per class, with the
// recommended Android timers.
func ExperimentTable5(p *runner.Pool, trials int, seedVal int64) Table5Result {
	classes := []string{"C-plane", "D-plane", "D-Delivery"}
	type cell struct {
		app   AppKind
		class string
		mode  Mode
		trial int
	}
	var cells []cell
	for _, app := range AppKinds {
		for _, class := range classes {
			for _, mode := range Modes {
				for t := 0; t < trials; t++ {
					cells = append(cells, cell{app, class, mode, t})
				}
			}
		}
	}
	// Trial t shares one derived seed across every (app, class, mode)
	// arm, keeping the cross-scheme comparison paired.
	group := func(app AppKind, class string, mode Mode) string {
		return app.String() + "|" + class + "|" + mode.String()
	}
	outages := runner.Map(p, len(cells), func(i int) time.Duration {
		c := cells[i]
		return appDisruptionTrial(c.app, c.class, c.mode).run(sched.DeriveSeed(seedVal, cellKey(0, c.trial)))
	})
	acc := newTally()
	for i, o := range outages {
		if o >= 0 {
			c := cells[i]
			acc.add(group(c.app, c.class, c.mode), o)
		}
	}
	var res Table5Result
	for _, app := range AppKinds {
		for _, class := range classes {
			for _, mode := range Modes {
				outage := acc.get(group(app, class, mode))
				perceived := outage.Mean() - app.Buffer()
				if perceived < 0 {
					perceived = 0
				}
				res.Rows = append(res.Rows, AppDisruptionRow{
					App: app, Class: class, Mode: mode,
					Mean: perceived, Outage: outage.Mean(),
				})
			}
		}
	}
	return res
}

// appDisruptionTrial is one (app, failure class, mode) trial of Table 5:
// from the (app, mode) steady state — the device with recommended timers and
// the single app warmed for 90 seconds — it measures the raw network outage
// (-1 when it never recovered).
func appDisruptionTrial(app AppKind, class string, mode Mode) trial[time.Duration] {
	from := steady{family: familyTable5, mode: mode, tuned: true, apps: [3]AppKind{app}, warm: 90 * time.Second, start: true}
	return trial[time.Duration]{from, func(tb *Testbed, d *Device) time.Duration {
		if !d.Connected() {
			return -1
		}

		var fixedCond func() bool
		switch class {
		case "C-plane":
			// The Table 1 headline: identity desync after mobility. Legacy
			// loops on cause 9 until the long backoff; SEED reloads/reset.
			tb.DesyncIdentity(d)
			tb.SimulateMobility(d)
			fixedCond = d.Connected
		case "D-plane":
			// Outdated APN with a correct SIM copy (stale modem cache). The
			// IMS PDN keeps the registration alive through the failure, as on
			// real handsets.
			tb.EstablishIMS(d)
			tb.Advance(2 * time.Second)
			tb.MigrateSubscription(d, "internet2", true)
			d.inner.Mdm.OverrideSessionDNN("internet")
			tb.ReleaseInternetSessions(d)
			fixedCond = d.Connected
		case "D-Delivery":
			tb.StallGateway(d)
			fixedCond = func() bool {
				return !tb.net.UPF.Stalled(d.IMSI()) && d.Connected()
			}
		}
		// Wait for the failure to actually manifest (the injections above are
		// asynchronous), then measure the outage until recovery.
		if !tb.await(func() bool { return !fixedCond() }, time.Minute) {
			return -1
		}
		onset := tb.Now()
		if !tb.awaitAfter(onset, fixedCond, 45*time.Minute) {
			return -1
		}
		return tb.Now() - onset
	}}
}

// Render formats Table 5.
func (t Table5Result) Render() string {
	var b strings.Builder
	b.WriteString("Table 5: average app disruption (s), buffer-masked\n")
	fmt.Fprintf(&b, "%-12s", "Apps")
	for _, class := range []string{"C-plane", "D-plane", "D-Delivery"} {
		for _, m := range Modes {
			fmt.Fprintf(&b, " %9s", class[:4]+"/"+m.String()[:4])
		}
	}
	b.WriteString("\n")
	for _, app := range AppKinds {
		fmt.Fprintf(&b, "%-12s", app.String())
		for _, class := range []string{"C-plane", "D-plane", "D-Delivery"} {
			for _, m := range Modes {
				for _, r := range t.Rows {
					if r.App == app && r.Class == class && r.Mode == m {
						fmt.Fprintf(&b, " %9.1f", r.Mean.Seconds())
					}
				}
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Figure 11a — network-side CPU overhead
// ---------------------------------------------------------------------------

// CPUPoint is one Figure 11a sample.
type CPUPoint struct {
	FailuresPerSec float64
	BaselinePct    float64
	WithSEEDPct    float64
	// ExtraSignaling is the measured extra NAS messages per failure that
	// SEED's collaboration adds (from a real mini-simulation).
	ExtraSignaling float64
}

// Figure11aResult holds the CPU utilization curve.
type Figure11aResult struct {
	Points []CPUPoint
	UEs    int
}

// ExperimentFigure11a emulates 200 devices cycling attach/detach, injects
// failures at increasing rates, measures SEED's extra signaling from a
// real simulation, and reports CPU utilization from the calibrated load
// model (the physical-CPU substitution documented in DESIGN.md).
func ExperimentFigure11a(p *runner.Pool, seedVal int64) Figure11aResult {
	const ues = 200
	// SEED's extra core messages per failure: the same failure burst against
	// a SEED-U and a legacy device, two cells on the pool sharing one derived
	// seed (a paired comparison).
	arms := runner.Map(p, 2, func(i int) int {
		return signalingTrial([]Mode{ModeSEEDU, ModeLegacy}[i]).run(sched.DeriveSeed(seedVal, cellKey(0, 0)))
	})
	extra := float64(arms[0] - arms[1])
	res := Figure11aResult{UEs: ues}
	for _, rate := range []float64{0, 20, 40, 60, 80, 100} {
		res.Points = append(res.Points, CPUPoint{
			FailuresPerSec: rate,
			BaselinePct:    metrics.Utilization(ues, rate, false),
			WithSEEDPct:    metrics.Utilization(ues, rate, true),
			ExtraSignaling: extra,
		})
	}
	return res
}

// signalingTrial is one arm of the signalling-overhead measurement: from the
// connected steady state, a burst of failures, each manifesting on mobility;
// it measures the core messages per failure.
func signalingTrial(mode Mode) trial[int] {
	return trial[int]{bareSteady(mode), func(tb *Testbed, d *Device) int {
		base := tb.CoreSignalingLoad()
		const failures = 20
		for i := 0; i < failures; i++ {
			tb.InjectControlFailure(d, 22, InjectOpts{Count: 1})
			tb.SimulateMobility(d)
			tb.Advance(30 * time.Second)
		}
		return (tb.CoreSignalingLoad() - base) / failures
	}}
}

// Render formats the curve.
func (f Figure11aResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 11a: core CPU utilization, %d emulated UEs\n", f.UEs)
	for _, p := range f.Points {
		fmt.Fprintf(&b, "  %5.0f failures/s: core %5.1f%%  core+SEED %5.1f%%  (+%.1f%%)\n",
			p.FailuresPerSec, p.BaselinePct, p.WithSEEDPct, p.WithSEEDPct-p.BaselinePct)
	}
	if len(f.Points) > 0 {
		fmt.Fprintf(&b, "  measured extra signaling: %.0f NAS messages per failure\n",
			f.Points[0].ExtraSignaling)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Figure 11b — device battery overhead
// ---------------------------------------------------------------------------

// BatteryPoint is one Figure 11b sample.
type BatteryPoint struct {
	Minutes       float64
	DefaultPct    float64
	SEEDPct       float64
	MobileInsight float64
}

// Figure11bResult holds the 30-minute battery curves.
type Figure11bResult struct {
	Points []BatteryPoint
	// SIMOps is the SIM operation count measured in the stress run.
	SIMOps int
}

// ExperimentFigure11b runs the §7.2.1 stress test — one SIM diagnosis per
// second for 30 minutes — on a real device simulation, then converts the
// measured operation counts to battery drain with the calibrated model.
// A single shared kernel carries the whole stress run, so this experiment
// is one cell and takes no pool.
func ExperimentFigure11b(seedVal int64) Figure11bResult {
	ops := stressTrial().run(seedVal)
	var res Figure11bResult
	res.SIMOps = ops
	for m := 0.0; m <= 30; m += 5 {
		elapsed := time.Duration(m * float64(time.Minute))
		frac := m / 30
		res.Points = append(res.Points, BatteryPoint{
			Minutes:       m,
			DefaultPct:    metrics.Drain(elapsed, 0, 0),
			SEEDPct:       metrics.Drain(elapsed, int(float64(ops)*frac), 0),
			MobileInsight: metrics.Drain(elapsed, 0, int(100*elapsed.Seconds())),
		})
	}
	return res
}

// stressTrial is the Figure 11b stress run on a connected SEED-U device: one
// diagnosis delivery per second for 30 minutes. It measures the SIM
// operations the run cost.
func stressTrial() trial[int] {
	return trial[int]{bareSteady(ModeSEEDU), func(tb *Testbed, d *Device) int {
		opsBase := d.SIMOperations()
		stop := time.Duration(30) * time.Minute
		start := tb.Now()
		// Stress: one diagnosis delivery per second.
		var pump func()
		pump = func() {
			if tb.Now()-start >= stop {
				return
			}
			tb.plugin.SendDiagnosis(d.IMSI(), benignDiag())
			tb.After(time.Second, pump)
		}
		pump()
		tb.Advance(stop + time.Second)
		return d.SIMOperations() - opsBase
	}}
}

// Render formats the battery curves.
func (f Figure11bResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 11b: battery drain over 30 min (stress: 1 diagnosis/s, %d SIM ops)\n", f.SIMOps)
	for _, p := range f.Points {
		fmt.Fprintf(&b, "  %4.0f min: default %.2f%%  SEED %.2f%%  MobileInsight %.2f%%\n",
			p.Minutes, p.DefaultPct, p.SEEDPct, p.MobileInsight)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Figure 12 — SIM↔infrastructure collaboration latency
// ---------------------------------------------------------------------------

// CollabLatency holds prep/transmission means for one direction.
type CollabLatency struct {
	Direction string
	PrepMean  time.Duration
	TransMean time.Duration
	N         int
}

// Figure12Result holds both directions.
type Figure12Result struct {
	Downlink CollabLatency
	Uplink   CollabLatency
}

// ExperimentFigure12 measures the real-time collaboration channel's
// preparation and transmission latency over n exchanges per direction.
// The exchanges share one device and kernel (uplink state feeds the next
// exchange), so this experiment is one sequential cell and takes no pool.
func ExperimentFigure12(n int, seedVal int64) Figure12Result {
	return collabTrial(n).run(seedVal)
}

// collabTrial is Figure 12's cell on a connected SEED-R device: n downlink
// diagnoses, then n OS-originated uplink reports, each timed from
// preparation to receipt.
func collabTrial(n int) trial[Figure12Result] {
	return trial[Figure12Result]{bareSteady(ModeSEEDR), func(tb *Testbed, d *Device) Figure12Result {
		prepDL := metrics.NewSeries()
		transDL := metrics.NewSeries()
		tb.plugin.OnDiagTiming = func(prep, trans time.Duration) {
			prepDL.Add(prep)
			transDL.Add(trans)
		}
		for i := 0; i < n; i++ {
			tb.plugin.SendDiagnosis(d.IMSI(), benignDiag())
			tb.Advance(2 * time.Second)
		}

		prepUL := metrics.NewSeries()
		transUL := metrics.NewSeries()
		var t0, tSent time.Duration
		d.inner.CApp.OnUplinkSent = func() { tSent = tb.Now() }
		received := false
		tb.plugin.OnReportReceived = func(string) {
			if !received {
				received = true
				prepUL.Add(tSent - t0)
				transUL.Add(tb.Now() - tSent)
			}
		}
		for i := 0; i < n; i++ {
			received = false
			t0 = tb.Now()
			d.inner.CApp.OnDataStall("tcp") // OS-originated report
			tb.Advance(2 * time.Second)
		}
		return Figure12Result{
			Downlink: CollabLatency{Direction: "downlink", PrepMean: prepDL.Mean(), TransMean: transDL.Mean(), N: prepDL.Len()},
			Uplink:   CollabLatency{Direction: "uplink", PrepMean: prepUL.Mean(), TransMean: transUL.Mean(), N: prepUL.Len()},
		}
	}}
}

// Render formats the latency bars.
func (f Figure12Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 12: SIM-infra collaboration latency (ms)\n")
	for _, c := range []CollabLatency{f.Downlink, f.Uplink} {
		fmt.Fprintf(&b, "  %-9s prep %.1f  trans %.1f  total %.1f (n=%d)\n",
			c.Direction, ms(c.PrepMean), ms(c.TransMean), ms(c.PrepMean+c.TransMean), c.N)
	}
	return b.String()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ---------------------------------------------------------------------------
// Figure 13 — multi-tier reset recovery time
// ---------------------------------------------------------------------------

// ResetTimeRow is one Figure 13 bar group.
type ResetTimeRow struct {
	Level  string // "Hardware", "C-Plane", "D-Plane"
	Legacy time.Duration
	SEEDU  time.Duration
	SEEDR  time.Duration
}

// Figure13Result holds the reset-time comparison.
type Figure13Result struct {
	Rows []ResetTimeRow
}

// ExperimentFigure13 measures the recovery time of each reset tier under
// the legacy ladder (recommended intervals) and SEED's direct actions.
// The nine (tier, scheme) measurements are independent cells; the three
// arms of one tier share a derived seed (paired comparison).
func ExperimentFigure13(p *runner.Pool, seedVal int64) Figure13Result {
	levels := []string{"Hardware", "C-Plane", "D-Plane"} // rungs 3, 2, 1
	durs := runner.Map(p, len(levels)*3, func(i int) time.Duration {
		rung, mode := 3-i/3, Modes[i%3]
		cellSeed := sched.DeriveSeed(seedVal, cellKey(0, i/3))
		if mode == ModeLegacy {
			return ladderTrial(rung).run(cellSeed)
		}
		return seedResetTrial(mode, rung).run(cellSeed)
	})
	var res Figure13Result
	for ti, level := range levels {
		res.Rows = append(res.Rows, ResetTimeRow{
			Level:  level,
			Legacy: durs[ti*3],
			SEEDU:  durs[ti*3+1],
			SEEDR:  durs[ti*3+2],
		})
	}
	return res
}

// ladderTrial measures how long the Android ladder takes from stall
// declaration until the rung-th action completes its recovery, using a
// failure only that rung can fix. Rungs 1 and 2 start from the steady state
// of a legacy device on recommended timers after 90 s of web and video
// traffic, whose gateway they stall. Rung 3 starts from that device with its
// modem cache stale from boot (the SIM copy correct, so only the
// modem-restart rung, which re-reads the SIM, fixes it) — built and not
// started, because the failure manifests from the device's own boot.
func ladderTrial(rung int) trial[time.Duration] {
	from := steady{family: familyLadder, mode: ModeLegacy, tuned: true, apps: [3]AppKind{AppWeb, AppVideo},
		warm: 90 * time.Second, start: rung != 3, staleDNN: rung == 3}
	return trial[time.Duration]{from, func(tb *Testbed, d *Device) time.Duration {
		if rung == 3 {
			first := true
			d.OnProfileReload(func() {
				if first {
					first = false
					d.inner.Mdm.OverrideSessionDNN("internet")
				}
			})
			d.Start()
			tb.Advance(5 * time.Second) // registration completes; session fails
			d.inner.Apps[AppWeb].Start()
			d.inner.Apps[AppVideo].Start()
		} else {
			if !d.Connected() {
				return -1
			}
			// A stalled gateway: any session re-establishment fixes it; the
			// ladder reaches "re-register" on rung 2 (rung 1's TCP cleanup
			// cannot help, matching §3.3).
			tb.StallGateway(d)
		}
		if !tb.await(d.inner.Mon.Stalled, 30*time.Minute) {
			return -1
		}
		stallAt := tb.Now()
		fixed := func() bool {
			return d.Connected() && !tb.net.UPF.Stalled(d.IMSI())
		}
		if !tb.awaitAfter(stallAt, fixed, 30*time.Minute) {
			return -1
		}
		return tb.Now() - stallAt
	}}
}

// seedResetTrial measures the SEED reset action of the ladder's rung-th tier
// end to end: from the diagnosis that triggers it until connectivity is
// back. The connected device comes from the bare steady state; the
// data-plane tier adds a second device on the same cloned testbed (its
// stale-DNN failure must manifest from that device's own boot).
func seedResetTrial(mode Mode, rung int) trial[time.Duration] {
	return trial[time.Duration]{bareSteady(mode), func(tb *Testbed, d *Device) time.Duration {
		if !d.Connected() {
			return -1
		}
		tb.Advance(30 * time.Second)
		start := tb.Now()
		switch rung {
		case 3:
			// Hardware tier: a desynced identity fixed by reload/reset.
			tb.DesyncIdentity(d)
			tb.SimulateMobility(d)
		case 2:
			// Control-plane tier with config refresh: stale slice.
			tb.RestrictSlice(d, 2)
			tb.SimulateMobility(d)
		case 1:
			// Data-plane tier: the boot-time stale-DNN manifestation keeps
			// the registration intact, so the measurement isolates the pure
			// data-plane reset (otherwise the last-bearer release forces a
			// reattach and measures the hardware tier instead).
			r := tb.replayStaleDNN(tb.NewDevice(mode), true, 0)
			if !r.Recovered {
				return -1
			}
			return r.Disruption
		}
		if !tb.awaitAfter(start, d.Connected, 30*time.Minute) {
			return -1
		}
		return tb.Now() - start
	}}
}

// Render formats the bar groups.
func (f Figure13Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 13: recovery time for multi-tier reset (s)\n")
	fmt.Fprintf(&b, "  %-10s %8s %8s %8s\n", "Level", "Legacy", "SEED-U", "SEED-R")
	for _, r := range f.Rows {
		fmt.Fprintf(&b, "  %-10s %8.1f %8.1f %8.1f\n",
			r.Level, r.Legacy.Seconds(), r.SEEDU.Seconds(), r.SEEDR.Seconds())
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// §7.1.1 coverage and §7.2.4 online learning
// ---------------------------------------------------------------------------

// CoverageResult reports the fraction of dataset failures SEED handles
// automatically per plane (the 89.4 % / 95.5 % numbers).
type CoverageResult struct {
	ControlHandled float64
	DataHandled    float64
	ControlN       int
	DataN          int
}

// Coverage folds every management case of the grid under SEED-U,
// user-action cases included, into the handled fractions. A case counts as
// handled when SEED recovered it (or, for user-action cases, never —
// matching the paper's accounting).
func (g DatasetGrid) Coverage() CoverageResult {
	acc := newTally()
	for _, c := range g.cells {
		if c.Plane == "delivery" || c.Mode != ModeSEEDU {
			continue
		}
		acc.counts[c.Plane+"/total"]++
		if c.Recovered && !c.Management.UserActionRequired {
			acc.counts[c.Plane+"/handled"]++
		}
	}
	var res CoverageResult
	res.ControlN = acc.counts["control/total"]
	res.DataN = acc.counts["data/total"]
	res.ControlHandled = float64(acc.counts["control/handled"]) / float64(res.ControlN)
	res.DataHandled = float64(acc.counts["data/handled"]) / float64(res.DataN)
	return res
}

// Render formats the coverage summary.
func (c CoverageResult) Render() string {
	return fmt.Sprintf("Coverage (§7.1.1): control-plane %.1f%% handled (n=%d), data-plane %.1f%% handled (n=%d)\n",
		100*c.ControlHandled, c.ControlN, 100*c.DataHandled, c.DataN)
}

// LearningResult reports the §7.2.4 online-learning experiment.
type LearningResult struct {
	Causes          int
	CorrectPlane    int
	TrialsRun       int
	SuggestionsSent int
}

// ExperimentLearning reproduces §7.2.4: several devices hit failures from
// customized (unstandardized) causes — half control-plane functions, half
// data-plane — 50 times each; the crowd-sourced records must classify
// every cause to the matching plane's reset actions. All devices share
// one testbed and the learner's crowd state accumulates across trials, so
// this experiment is one sequential cell by construction and takes no
// pool.
func ExperimentLearning(devices, causesPerPlane, trialsPerCause int, seedVal int64) LearningResult {
	tb := New(seedVal)
	tb.plugin.Learner.LR = 0.5

	var devs []*Device
	for i := 0; i < devices; i++ {
		d := tb.NewDevice(ModeSEEDR)
		d.Start()
		devs = append(devs, d)
	}
	tb.Advance(time.Minute)
	for _, d := range devs {
		tb.EstablishIMS(d) // keep registration alive through d-plane trials
	}
	tb.Advance(5 * time.Second)

	type custom struct {
		control bool
		code    uint8
	}
	var causes []custom
	for i := 0; i < causesPerPlane; i++ {
		causes = append(causes, custom{true, uint8(150 + i)})
		causes = append(causes, custom{false, uint8(150 + i)})
	}

	res := LearningResult{Causes: len(causes)}
	for t := 0; t < trialsPerCause; t++ {
		for _, c := range causes {
			d := devs[(t+int(c.code))%len(devs)]
			res.TrialsRun++
			// Failures are tied to a (customized) network function: only a
			// reset of the corresponding module clears them — a plain
			// timer retry does not, exactly the unknown-handling premise
			// of §5.3: a modem reboot for control-plane functions, a
			// carrier-app data reset for data-plane functions.
			injected := tb.Now()
			var moduleReset func() bool
			if c.control {
				tb.InjectControlFailure(d, c.code, InjectOpts{Count: -1})
				reboots := d.Reboots()
				moduleReset = func() bool { return d.Reboots() > reboots }
				tb.SimulateMobility(d)
			} else {
				tb.InjectDataFailure(d, c.code, InjectOpts{Count: -1})
				resets := dataResets(d)
				moduleReset = func() bool { return dataResets(d) > resets }
				tb.ReleaseInternetSessions(d)
				// wait for the failure to manifest before watching recovery
				tb.await(func() bool { return !d.Connected() }, 30*time.Second)
			}
			// The function looks at its module every 20 ms from the moment it
			// failed, and comes back at the first look after the reset.
			recoverBy := tb.Now() + 10*time.Minute
			if tb.await(func() bool { return moduleReset() || d.Connected() }, 10*time.Minute) && !d.Connected() {
				const look = 20 * time.Millisecond
				tb.After(look-(tb.Now()-injected)%look, func() { tb.ClearInjections(d) })
				tb.await(d.Connected, recoverBy-tb.Now())
			}
			tb.ClearInjections(d)
			tb.Advance(15 * time.Second)
			// Upload the SIM records after each recovery (OTA leg). The
			// destination is the testbed-wired default sink: the local
			// infrastructure plugin.
			d.inner.CApp.UploadRecords()
			tb.Advance(time.Second)
		}
	}
	res.SuggestionsSent = tb.plugin.Stats().Suggestions

	// Verify plane classification of the learned best actions.
	for _, c := range causes {
		best, has := learnedBest(tb, c.control, c.code)
		controlAction := best == core.ActionA1 || best == core.ActionB1 || best == core.ActionA2 || best == core.ActionB2
		dataAction := best == core.ActionA3 || best == core.ActionB3
		if has && (c.control && controlAction || !c.control && dataAction) {
			res.CorrectPlane++
		}
	}
	return res
}

// dataResets counts the data-session resets the device's carrier app has
// performed, fast and make-before-break alike.
func dataResets(d *Device) int {
	st := d.inner.CApp.Stats()
	return st.FastResets + st.DataResets
}

// learnedBest returns the learner's best action for the customized cause.
func learnedBest(tb *Testbed, control bool, code uint8) (core.ActionID, bool) {
	c := cause.SM(cause.Code(code))
	if control {
		c = cause.MM(cause.Code(code))
	}
	return tb.plugin.Learner.Best(c)
}

// Render formats the learning summary.
func (l LearningResult) Render() string {
	return fmt.Sprintf("Online learning (§7.2.4): %d customized causes, %d trials, %d suggestions; %d/%d causes classified to the correct plane\n",
		l.Causes, l.TrialsRun, l.SuggestionsSent, l.CorrectPlane, l.Causes)
}

// ---------------------------------------------------------------------------
// Mobility — handover-induced failure classes SEED's corpus never saw
// ---------------------------------------------------------------------------

// MobilityRow is one (scenario, mode) group of the mobility experiment.
type MobilityRow struct {
	Scenario string
	Mode     Mode
	Median   time.Duration
	P90      time.Duration
	Trials   int
	Unrecov  int
	// Handovers / ContextLoss are the summed per-cell testbed counters
	// (Testbed.Handovers) across the group's trials.
	Handovers   int
	ContextLoss int
}

// MobilityResult holds the mobility experiment's table.
type MobilityResult struct {
	Rows []MobilityRow
}

// mobilityScenarios lists the two mobility-induced failure classes in
// render order.
var mobilityScenarios = []string{workload.ScenHandoverDesync, workload.ScenTAURace}

// ExperimentMobility measures the two mobility-induced failure classes —
// a racing handover interrupting the recovery registration after a lost
// context transfer, and a tracking-area update racing SEED's in-flight
// diagnosis — end-to-end under all three schemes, on the default workload
// spec's cell graph. Each (scenario, trial) pair shares its walk and cell
// seed across the three modes (a paired comparison).
func ExperimentMobility(p *runner.Pool, trials int, seedVal int64) MobilityResult {
	sp := workload.DefaultSpec()
	mob := &workload.MobilitySpec{Model: "random-waypoint", HopsMin: 2, HopsMax: 5, DwellMeanSec: 20}
	type cell struct {
		scen   string
		family uint64
		mode   Mode
		trial  int
	}
	var cells []cell
	for family, scen := range mobilityScenarios {
		for _, mode := range Modes {
			for i := 0; i < trials; i++ {
				cells = append(cells, cell{scen: scen, family: uint64(family), mode: mode, trial: i})
			}
		}
	}
	results := runner.Map(p, len(cells), func(i int) workload.Outcome {
		c := cells[i]
		// The walk derives from (scenario, trial) only, so every mode
		// replays the same trajectory.
		walkRNG := sched.NewRand(sched.DeriveSeedN(seedVal, 0x3B, c.family, uint64(c.trial)))
		hops, lossy := workload.SampleWalk(walkRNG, sp.Cells.N, mob, c.scen)
		return RunWorkloadCell(sp, workload.Cell{
			Scenario: c.scen, Hops: hops, LossyHop: lossy,
			Seed: sched.DeriveSeed(seedVal, cellKey(c.family, c.trial)),
		}, c.mode, nil)
	})
	acc := newTally()
	for i, res := range results {
		group := cells[i].scen + "/" + cells[i].mode.String()
		acc.counts[group+"/trials"]++
		acc.outcome(group, res.Recovered, res.Disruption)
		acc.counts[group+"/handovers"] += res.Handovers
		acc.counts[group+"/ctxloss"] += res.ContextLoss
	}
	var res MobilityResult
	for _, scen := range mobilityScenarios {
		for _, mode := range Modes {
			group := scen + "/" + mode.String()
			s := acc.get(group)
			res.Rows = append(res.Rows, MobilityRow{
				Scenario: scen, Mode: mode,
				Median: s.Median(), P90: s.Percentile(90),
				Trials:      acc.counts[group+"/trials"],
				Unrecov:     acc.counts[group+"/unrecov"],
				Handovers:   acc.counts[group+"/handovers"],
				ContextLoss: acc.counts[group+"/ctxloss"],
			})
		}
	}
	return res
}

// Render formats the mobility table.
func (m MobilityResult) Render() string {
	var b strings.Builder
	b.WriteString("Mobility: handover-race disruption (s) percentiles per scheme\n")
	fmt.Fprintf(&b, "%-16s %-8s %10s %10s %6s %6s %5s %5s\n",
		"Scenario", "Handling", "Median", "90th", "n", "unrec", "HOs", "lost")
	for _, r := range m.Rows {
		fmt.Fprintf(&b, "%-16s %-8s %10.1f %10.1f %6d %6d %5d %5d\n",
			r.Scenario, r.Mode, r.Median.Seconds(), r.P90.Seconds(),
			r.Trials, r.Unrecov, r.Handovers, r.ContextLoss)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Causes — per-cause disruption and recovery-action breakdown
// ---------------------------------------------------------------------------

// CausesResult holds the per-(cause, mode) breakdown: disruption
// percentiles, executed reset actions, and the shared cost-model means —
// priced by the same internal/metrics model the policy optimizer
// minimizes, so a row here and a policy score are directly comparable.
type CausesResult struct {
	Rows []metrics.BreakdownRow
}

// Causes folds every cell a causes row counts — each management cell of
// the grid — into the per-cause breakdown: the drill-down behind Table 4's
// per-plane aggregates, over the same paired cells. A row's key is
// "plane/code mode", so the key-sorted export groups the three schemes
// under each cause.
func (g DatasetGrid) Causes() CausesResult {
	b := metrics.NewBreakdown()
	for _, c := range g.cells {
		if c.CausesRow == "" {
			continue
		}
		r := c.Management
		b.Add(c.CausesRow, metrics.CostInput{
			Recovered: r.Recovered, Disruption: r.Disruption,
			Actions: r.Actions, Reboots: r.Reboots, UserNotified: r.UserNotified,
		})
	}
	return CausesResult{Rows: b.Rows()}
}

// Render formats the breakdown.
func (c CausesResult) Render() string {
	var b strings.Builder
	b.WriteString("Causes: per-cause disruption (s) and recovery-action breakdown\n")
	fmt.Fprintf(&b, "%-22s %6s %6s %8s %8s %7s %7s  %s\n",
		"Cause/Handling", "n", "unrec", "median", "p90", "cost", "compos", "actions")
	for _, r := range c.Rows {
		var acts []string
		for _, a := range r.Actions {
			// "A1/profile-reload" → "A1" keeps the column readable.
			name := a.Action
			if len(name) >= 2 {
				name = name[:2]
			}
			acts = append(acts, fmt.Sprintf("%s:%d", name, a.Count))
		}
		fmt.Fprintf(&b, "%-22s %6d %6d %8.1f %8.1f %7.1f %7.1f  %s\n",
			r.Key, r.Cells, r.Cells-r.Recovered, r.MedianS, r.P90S,
			r.MeanActionCostS, r.MeanCompositeS, strings.Join(acts, " "))
	}
	return b.String()
}
