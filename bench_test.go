package seed_test

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation (§7). Each iteration regenerates the artifact on
// the virtual-clock testbed; the replayed sample sizes are kept moderate
// so `go test -bench=.` finishes in seconds. The same computations at
// full sample size are available through cmd/seedbench.
//
// The milestone values they report (b.ReportMetric) are not the numbers
// EXPERIMENTS.md compares against the paper: those come from cmd/seedbench
// (-samples 150 -seed 1). Only its "Ablations" section reads benchmarks
// here, the BenchmarkAblation_* ones.

import (
	"strings"
	"testing"
	"time"

	seed "github.com/seed5g/seed"
)

func benchDataset(b *testing.B) *seed.Dataset {
	b.Helper()
	return seed.GenerateDataset(1)
}

// BenchmarkTable1_FailureCauses regenerates the §3.1 corpus and its
// Table 1 breakdown.
func BenchmarkTable1_FailureCauses(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ds := seed.GenerateDataset(int64(i + 1))
		if ds.FailureRatio() < 0.10 {
			b.Fatal("failure ratio below the >10% headline")
		}
		_ = ds.RenderTable1()
	}
}

// BenchmarkFigure2_LegacyDisruptionCDF replays the dataset grid and
// reports the CDF milestones of Figure 2, its legacy-handling fold.
func BenchmarkFigure2_LegacyDisruptionCDF(b *testing.B) {
	ds := benchDataset(b)
	var last seed.Figure2Result
	for i := 0; i < b.N; i++ {
		last = seed.ReplayDatasetGrid(testPool, ds, 40, int64(i+1)).Figure2()
	}
	b.ReportMetric(fractionAt(last.Control, 2)*100, "ctl-F(2s)-%")
	b.ReportMetric(fractionAt(last.Control, 10)*100, "ctl-F(10s)-%")
	b.ReportMetric(fractionAt(last.Data, 10)*100, "data-F(10s)-%")
}

func fractionAt(pts []seed.CDFPoint, x float64) float64 {
	f := 0.0
	for _, p := range pts {
		if p.Seconds <= x {
			f = p.Fraction
		}
	}
	return f
}

// BenchmarkFigure3_AndroidDetection measures Android's stall-detection
// latency for TCP/UDP/DNS blocking.
func BenchmarkFigure3_AndroidDetection(b *testing.B) {
	var last seed.Figure3Result
	for i := 0; i < b.N; i++ {
		last = seed.ExperimentFigure3(testPool, 4, int64(i+1))
	}
	b.ReportMetric(last.TCP.Mean.Seconds(), "tcp-mean-s")
	b.ReportMetric(last.DNS.Median.Seconds(), "dns-median-s")
	b.ReportMetric(last.UDP.Median.Seconds(), "udp-median-s")
}

// BenchmarkTable4_Disruption replays the dataset grid and reports Table 4's
// headline medians.
func BenchmarkTable4_Disruption(b *testing.B) {
	ds := benchDataset(b)
	var last seed.Table4Result
	for i := 0; i < b.N; i++ {
		last = seed.ReplayDatasetGrid(testPool, ds, 25, int64(i+1)).Table4()
	}
	for _, r := range last.Rows {
		key := strings.ReplaceAll(r.Class, " ", "") + "-" + r.Mode.String() + "-median-s"
		b.ReportMetric(r.Median.Seconds(), key)
	}
}

// BenchmarkTable5_AppDisruption measures buffer-masked app disruption for
// the five applications under the three schemes.
func BenchmarkTable5_AppDisruption(b *testing.B) {
	var last seed.Table5Result
	for i := 0; i < b.N; i++ {
		last = seed.ExperimentTable5(testPool, 1, int64(i+1))
	}
	for _, r := range last.Rows {
		if r.App == seed.AppEdgeAR {
			b.ReportMetric(r.Mean.Seconds(), "AR-"+r.Class+"-"+r.Mode.String()+"-s")
		}
	}
}

// BenchmarkFigure11a_CoreCPU regenerates the network-side CPU overhead
// curve (200 emulated UEs, failure-rate sweep).
func BenchmarkFigure11a_CoreCPU(b *testing.B) {
	var last seed.Figure11aResult
	for i := 0; i < b.N; i++ {
		last = seed.ExperimentFigure11a(testPool, int64(i+1))
	}
	p := last.Points[len(last.Points)-1]
	b.ReportMetric(p.WithSEEDPct-p.BaselinePct, "seed-overhead-pct@100fps")
}

// BenchmarkFigure11b_Battery regenerates the device battery curves under
// the 1-diagnosis/s stress test.
func BenchmarkFigure11b_Battery(b *testing.B) {
	var last seed.Figure11bResult
	for i := 0; i < b.N; i++ {
		last = seed.ExperimentFigure11b(int64(i + 1))
	}
	end := last.Points[len(last.Points)-1]
	b.ReportMetric(end.SEEDPct-end.DefaultPct, "seed-battery-overhead-pct")
	b.ReportMetric(end.MobileInsight-end.DefaultPct, "mi-battery-overhead-pct")
}

// BenchmarkFigure12_CollabLatency measures the SIM↔infra collaboration
// channel's preparation and transmission latency.
func BenchmarkFigure12_CollabLatency(b *testing.B) {
	var last seed.Figure12Result
	for i := 0; i < b.N; i++ {
		last = seed.ExperimentFigure12(20, int64(i+1))
	}
	b.ReportMetric(float64(last.Downlink.PrepMean)/1e6, "dl-prep-ms")
	b.ReportMetric(float64(last.Downlink.TransMean)/1e6, "dl-trans-ms")
	b.ReportMetric(float64(last.Uplink.PrepMean)/1e6, "ul-prep-ms")
	b.ReportMetric(float64(last.Uplink.TransMean)/1e6, "ul-trans-ms")
}

// BenchmarkFigure13_ResetTime measures recovery time per reset tier for
// the three schemes.
func BenchmarkFigure13_ResetTime(b *testing.B) {
	var last seed.Figure13Result
	for i := 0; i < b.N; i++ {
		last = seed.ExperimentFigure13(testPool, int64(i+1))
	}
	for _, r := range last.Rows {
		b.ReportMetric(r.Legacy.Seconds(), r.Level+"-legacy-s")
		b.ReportMetric(r.SEEDU.Seconds(), r.Level+"-seedU-s")
		b.ReportMetric(r.SEEDR.Seconds(), r.Level+"-seedR-s")
	}
}

// BenchmarkCoverage reproduces the §7.1.1 handled-fraction numbers.
func BenchmarkCoverage(b *testing.B) {
	ds := benchDataset(b)
	var last seed.CoverageResult
	for i := 0; i < b.N; i++ {
		last = seed.ReplayDatasetGrid(testPool, ds, 60, int64(i+1)).Coverage()
	}
	b.ReportMetric(last.ControlHandled*100, "ctl-handled-%")
	b.ReportMetric(last.DataHandled*100, "data-handled-%")
}

// BenchmarkOnlineLearning reproduces the §7.2.4 experiment.
func BenchmarkOnlineLearning(b *testing.B) {
	var last seed.LearningResult
	for i := 0; i < b.N; i++ {
		last = seed.ExperimentLearning(6, 4, 12, int64(i+1))
	}
	b.ReportMetric(float64(last.CorrectPlane)/float64(last.Causes)*100, "correct-plane-%")
}

// BenchmarkSingleCellScenario runs one complete scenario cell — testbed
// construction, a SEED-U device with app traffic, an injected control
// failure, and two minutes of virtual time — and reports allocations.
// This is the unit the parallel runner fans out, so its allocation count
// is what the pooling work (event kernel, keyed crypto, NAS scratch
// buffers) actually buys per cell.
func BenchmarkSingleCellScenario(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tb := seed.New(int64(i + 1))
		d := tb.NewDevice(seed.ModeSEEDU)
		tb.InjectControlFailure(d, 22, seed.InjectOpts{Count: 1})
		d.Start()
		tb.Advance(2 * time.Minute)
	}
}

// --- ablation benches (DESIGN.md's called-out design choices) -----------

// BenchmarkAblation_CPlaneWaitTimer compares recovery with and without the
// 2 s transient window for a transient failure that heals quickly: the
// timer avoids resetting into a failure that was about to clear.
func BenchmarkAblation_CPlaneWaitTimer(b *testing.B) {
	run := func(seedVal int64) (resets int) {
		tb := seed.New(seedVal)
		d := tb.NewDevice(seed.ModeSEEDU)
		tb.InjectControlFailure(d, 22, seed.InjectOpts{Count: 1})
		d.Start()
		tb.Advance(2 * time.Minute)
		for _, n := range d.ActionCounts() {
			resets += n
		}
		return resets
	}
	total := 0
	for i := 0; i < b.N; i++ {
		total += run(int64(i + 1))
	}
	b.ReportMetric(float64(total)/float64(b.N), "resets-per-transient")
}

// BenchmarkAblation_FastResetVsReattach contrasts the Fig 6 DIAG-session
// data-plane reset with a naive release-and-reattach: the reattach count
// shows the control-plane work the trick avoids.
func BenchmarkAblation_FastResetVsReattach(b *testing.B) {
	var fast, naive time.Duration
	for i := 0; i < b.N; i++ {
		// Fast reset (Fig 6).
		tb := seed.New(int64(i + 1))
		d := tb.NewDevice(seed.ModeSEEDR)
		d.Start()
		tb.RunUntil(d.Connected, time.Minute)
		t0 := tb.Now()
		d.FastDataReset()
		tb.RunUntil(func() bool { return tb.Now() > t0 && d.Connected() }, time.Minute)
		fast += tb.Now() - t0

		// Naive reset: release the session, ride out the reattach.
		tb2 := seed.New(int64(i + 1))
		d2 := tb2.NewDevice(seed.ModeSEEDR)
		d2.Start()
		tb2.RunUntil(d2.Connected, time.Minute)
		t1 := tb2.Now()
		tb2.ReleaseSessions(d2)
		tb2.RunUntil(func() bool { return !d2.Connected() }, time.Minute)
		tb2.RunUntil(d2.Connected, 30*time.Minute)
		naive += tb2.Now() - t1
	}
	b.ReportMetric(fast.Seconds()/float64(b.N), "fig6-reset-s")
	b.ReportMetric(naive.Seconds()/float64(b.N), "naive-reset-s")
}
