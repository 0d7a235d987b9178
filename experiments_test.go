package seed_test

// Shape tests for the experiment runners: each asserts the qualitative
// results the paper reports (who wins, by what rough factor, where
// crossovers fall), using reduced sample counts so the suite stays fast.

import (
	"reflect"
	"strings"
	"testing"
	"time"

	seed "github.com/seed5g/seed"
	"github.com/seed5g/seed/internal/runner"
)

// testPool is the GOMAXPROCS-wide pool the shape tests and benchmarks fan
// their cells across.
var testPool = runner.New(0)

func TestExperimentFigure2Shape(t *testing.T) {
	ds := seed.GenerateDataset(1)
	f := seed.ReplayDatasetGrid(testPool, ds, 60, 100).Figure2()

	// §3.2: ~19 % of control-plane failures recover within 2 s.
	if got := fractionAt(f.Control, 2); got < 0.10 || got > 0.30 {
		t.Fatalf("control F(2s) = %.2f, want ≈0.19", got)
	}
	// Only a minority recover within 10 s.
	if got := fractionAt(f.Control, 10); got > 0.45 {
		t.Fatalf("control F(10s) = %.2f, too many fast recoveries", got)
	}
	// §3.2: only ~9 % of data-plane failures recover within 10 s.
	if got := fractionAt(f.Data, 10); got > 0.25 {
		t.Fatalf("data F(10s) = %.2f, want ≈0.09", got)
	}
	// Half of data-plane failures need minutes.
	if got := fractionAt(f.Data, 240); got > 0.5 {
		t.Fatalf("data F(4min) = %.2f; the median must sit near 8 min", got)
	}

	// At seed 3 the one sampled case of each plane is a user-action case:
	// no plane has a recoverable case, so neither has points or a fraction.
	empty := seed.ReplayDatasetGrid(testPool, seed.GenerateDataset(3), 1, 3).Figure2()
	if empty.ControlN != 0 || empty.DataN != 0 || empty.Control != nil || empty.Data != nil ||
		empty.ControlUnrecovered != 0 || empty.DataUnrecovered != 0 {
		t.Fatalf("no recoverable case, yet %+v", empty)
	}
	want := "Figure 2: disruption CDF with legacy modem handling\n  control-plane n=0\n  data-plane    n=0\n"
	if got := empty.Render(); got != want {
		t.Fatalf("render:\n%s\nwant:\n%s", got, want)
	}
}

func TestExperimentTable4Shape(t *testing.T) {
	ds := seed.GenerateDataset(1)
	res := seed.ReplayDatasetGrid(testPool, ds, 30, 200).Table4()

	get := func(class string, mode seed.Mode) seed.DisruptionRow {
		for _, r := range res.Rows {
			if r.Class == class && r.Mode == mode {
				return r
			}
		}
		t.Fatalf("missing row %s/%v", class, mode)
		return seed.DisruptionRow{}
	}

	for _, class := range []string{"Control Plane", "Data Plane", "Data Delivery"} {
		legacy := get(class, seed.ModeLegacy)
		su := get(class, seed.ModeSEEDU)
		sr := get(class, seed.ModeSEEDR)
		if su.Median > legacy.Median || sr.Median > legacy.Median {
			t.Fatalf("%s: SEED medians (%v/%v) not better than legacy (%v)",
				class, su.Median, sr.Median, legacy.Median)
		}
		if sr.Median > su.Median+time.Second {
			t.Fatalf("%s: SEED-R median %v slower than SEED-U %v", class, sr.Median, su.Median)
		}
	}
	// The headline factors.
	if dp := get("Data Plane", seed.ModeLegacy); dp.Median < 2*time.Minute {
		t.Fatalf("legacy data-plane median = %v, want minutes", dp.Median)
	}
	if dp := get("Data Plane", seed.ModeSEEDU); dp.Median > 3*time.Second {
		t.Fatalf("SEED-U data-plane median = %v, want ≈1 s", dp.Median)
	}
	if dd := get("Data Delivery", seed.ModeSEEDR); dd.Median > time.Second {
		t.Fatalf("SEED-R delivery handling median = %v, want sub-second", dd.Median)
	}
	if dd := get("Data Delivery", seed.ModeLegacy); dd.Median < 10*time.Second {
		t.Fatalf("legacy delivery handling median = %v, want ≈30 s", dd.Median)
	}

	// At seed 3 the one sampled management case of each plane is a
	// user-action case, which Table 4 leaves out, and the one delivery case
	// is no stalled gateway, which legacy is not counted on: those seven rows
	// have no recovered cell and print dashes, not measured-looking zeros,
	// as does a row whose every cell went unrecovered.
	sparse := seed.ReplayDatasetGrid(testPool, seed.GenerateDataset(3), 1, 3).Table4()
	sparse.Rows = append(sparse.Rows, seed.DisruptionRow{Class: "Control Plane", Mode: seed.ModeLegacy, Unrecov: 2})
	lines := strings.Split(strings.TrimSuffix(sparse.Render(), "\n"), "\n")[2:]
	if len(lines) != len(sparse.Rows) {
		t.Fatalf("%d rows rendered as %d lines", len(sparse.Rows), len(lines))
	}
	empty := 0
	for i, r := range sparse.Rows {
		f := strings.Fields(lines[i])
		dashes := f[len(f)-4] == "-" && f[len(f)-3] == "-"
		if dashes != (r.Samples == 0) {
			t.Errorf("row %+v rendered as %q", r, lines[i])
		}
		if r.Samples == 0 {
			empty++
		}
	}
	if empty != 8 {
		t.Errorf("%d rows without a recovered cell, want the seven of seed 3 and the unrecovered one", empty)
	}
}

func TestExperimentFigure3Shape(t *testing.T) {
	f := seed.ExperimentFigure3(testPool, 5, 600)
	if f.TCP.N == 0 || f.DNS.N == 0 || f.UDP.N == 0 {
		t.Fatalf("undetected: tcp=%d dns=%d udp=%d", f.TCP.Undetected, f.DNS.Undetected, f.UDP.Undetected)
	}
	// TCP detection is minutes-scale at most; DNS/UDP many minutes.
	if f.TCP.Mean > 4*time.Minute {
		t.Fatalf("TCP mean = %v", f.TCP.Mean)
	}
	if f.DNS.Median < 4*time.Minute || f.DNS.Median > 12*time.Minute {
		t.Fatalf("DNS median = %v, want ≈8.7 min", f.DNS.Median)
	}
	if f.UDP.Median < f.TCP.Mean {
		t.Fatal("UDP (via DNS) should be detected far slower than TCP")
	}
}

func TestExperimentTable5Shape(t *testing.T) {
	res := seed.ExperimentTable5(testPool, 1, 700)
	get := func(app seed.AppKind, class string, mode seed.Mode) seed.AppDisruptionRow {
		for _, r := range res.Rows {
			if r.App == app && r.Class == class && r.Mode == mode {
				return r
			}
		}
		t.Fatalf("missing row %v/%s/%v", app, class, mode)
		return seed.AppDisruptionRow{}
	}
	for _, class := range []string{"C-plane", "D-plane", "D-Delivery"} {
		// Video's 30 s buffer fully masks every SEED-handled failure.
		if v := get(seed.AppVideo, class, seed.ModeSEEDR); v.Mean != 0 {
			t.Fatalf("video %s SEED-R perceived = %v, want 0 (buffer mask)", class, v.Mean)
		}
		// Legacy is far worse than SEED for every app.
		for _, app := range seed.AppKinds {
			l := get(app, class, seed.ModeLegacy)
			r := get(app, class, seed.ModeSEEDR)
			if l.Mean < r.Mean {
				t.Fatalf("%v %s: legacy %v better than SEED-R %v", app, class, l.Mean, r.Mean)
			}
		}
	}
	// AR under SEED-R recovers in ≲1 s for delivery failures (§7.1.2).
	if ar := get(seed.AppEdgeAR, "D-Delivery", seed.ModeSEEDR); ar.Mean > 2*time.Second {
		t.Fatalf("AR delivery SEED-R = %v", ar.Mean)
	}
}

func TestExperimentFigure11Shape(t *testing.T) {
	a := seed.ExperimentFigure11a(testPool, 1)
	if len(a.Points) == 0 {
		t.Fatal("no CPU points")
	}
	last := a.Points[len(a.Points)-1]
	if last.FailuresPerSec != 100 {
		t.Fatalf("sweep end = %v", last.FailuresPerSec)
	}
	over := last.WithSEEDPct - last.BaselinePct
	if over < 3 || over > 7 {
		t.Fatalf("SEED CPU overhead at 100 f/s = %.1f%%, want ≈4.7%%", over)
	}
	if last.ExtraSignaling <= 0 || last.ExtraSignaling > 10 {
		t.Fatalf("extra signaling per failure = %.1f, want small positive", last.ExtraSignaling)
	}

	b := seed.ExperimentFigure11b(1)
	end := b.Points[len(b.Points)-1]
	if o := end.SEEDPct - end.DefaultPct; o < 0.8 || o > 1.8 {
		t.Fatalf("SEED battery overhead = %.2f%%, want ≈1.2%%", o)
	}
	if o := end.MobileInsight - end.DefaultPct; o < 6 || o > 11 {
		t.Fatalf("MobileInsight battery overhead = %.2f%%, want ≈8.5%%", o)
	}
	if b.SIMOps < 1500 || b.SIMOps > 2200 {
		t.Fatalf("stress SIM ops = %d, want ≈1800 (1/s for 30 min)", b.SIMOps)
	}
}

func TestExperimentFigure12Shape(t *testing.T) {
	f := seed.ExperimentFigure12(10, 400)
	if f.Downlink.N != 10 || f.Uplink.N != 10 {
		t.Fatalf("exchange counts: dl=%d ul=%d", f.Downlink.N, f.Uplink.N)
	}
	// Everything is tens of milliseconds — the real-time claim.
	for _, c := range []seed.CollabLatency{f.Downlink, f.Uplink} {
		total := c.PrepMean + c.TransMean
		if total < 20*time.Millisecond || total > 200*time.Millisecond {
			t.Fatalf("%s total = %v, want tens of ms", c.Direction, total)
		}
	}
	// Downlink prep is the infra's 12.8 ms preparation.
	if f.Downlink.PrepMean < 10*time.Millisecond || f.Downlink.PrepMean > 20*time.Millisecond {
		t.Fatalf("downlink prep = %v", f.Downlink.PrepMean)
	}
}

func TestExperimentFigure13Shape(t *testing.T) {
	f := seed.ExperimentFigure13(testPool, 300)
	if len(f.Rows) != 3 {
		t.Fatalf("rows = %d", len(f.Rows))
	}
	for _, r := range f.Rows {
		if r.Legacy <= 0 || r.SEEDU <= 0 || r.SEEDR <= 0 {
			t.Fatalf("%s: unmeasured tier %+v", r.Level, r)
		}
		if r.SEEDU > r.Legacy || r.SEEDR > r.Legacy {
			t.Fatalf("%s: SEED slower than legacy: %+v", r.Level, r)
		}
		if r.SEEDR > r.SEEDU {
			t.Fatalf("%s: SEED-R slower than SEED-U: %+v", r.Level, r)
		}
	}
	// D-plane resets are sub-second under SEED (0.88/0.42 s in the paper).
	for _, r := range f.Rows {
		if r.Level == "D-Plane" {
			if r.SEEDU > 2*time.Second || r.SEEDR > time.Second {
				t.Fatalf("D-plane SEED resets too slow: %+v", r)
			}
		}
	}
}

func TestExperimentCoverageShape(t *testing.T) {
	ds := seed.GenerateDataset(1)
	c := seed.ReplayDatasetGrid(testPool, ds, 90, 500).Coverage()
	if c.ControlHandled < 0.84 || c.ControlHandled > 0.94 {
		t.Fatalf("control handled = %.3f, want ≈0.894", c.ControlHandled)
	}
	if c.DataHandled < 0.91 || c.DataHandled > 0.99 {
		t.Fatalf("data handled = %.3f, want ≈0.955", c.DataHandled)
	}
}

func TestExperimentLearningShape(t *testing.T) {
	l := seed.ExperimentLearning(6, 4, 10, 900)
	if l.Causes != 8 {
		t.Fatalf("causes = %d", l.Causes)
	}
	if l.CorrectPlane != l.Causes {
		t.Fatalf("plane classification %d/%d, paper reports all correct", l.CorrectPlane, l.Causes)
	}
	if l.SuggestionsSent == 0 {
		t.Fatal("no suggestions were ever sent")
	}
}

func TestRendersContainHeadlines(t *testing.T) {
	ds := seed.GenerateDataset(1)
	checks := []struct {
		out  string
		want []string
	}{
		{seed.ReplayDatasetGrid(testPool, ds, 20, 1).Figure2().Render(), []string{"Figure 2", "control-plane", "data-plane"}},
		{seed.ReplayDatasetGrid(testPool, ds, 10, 1).Table4().Render(), []string{"Table 4", "Control Plane", "SEED-R"}},
		{seed.ExperimentFigure11a(testPool, 1).Render(), []string{"Figure 11a", "100 failures/s"}},
		{seed.ExperimentFigure12(3, 1).Render(), []string{"Figure 12", "downlink", "uplink"}},
		{seed.ExperimentFigure13(testPool, 1).Render(), []string{"Figure 13", "Hardware", "D-Plane"}},
		{seed.ReplayDatasetGrid(testPool, ds, 20, 1).Coverage().Render(), []string{"Coverage", "control-plane"}},
	}
	for i, c := range checks {
		for _, w := range c.want {
			if !strings.Contains(c.out, w) {
				t.Errorf("render %d missing %q:\n%s", i, w, c.out)
			}
		}
	}
}

func TestReplayDeterminism(t *testing.T) {
	ds := seed.GenerateDataset(1)
	fc := ds.Failures()[0]
	a := seed.ReplayManagement(fc, seed.ModeSEEDU, 5)
	b := seed.ReplayManagement(fc, seed.ModeSEEDU, 5)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("replay not deterministic: %+v vs %+v", a, b)
	}
}

// restores sums the restores of every prototype family, and of the two the
// management replays start from.
func restores() (all, bareCold int) {
	for _, f := range seed.PrototypeStats() {
		all += f.Restores
		if f.Family == "bare" || f.Family == "cold" {
			bareCold += f.Restores
		}
	}
	return all, bareCold
}

// A run shaped like seedbench -exp all — the grid, then all four folds —
// replays each dataset cell once: the grid restores one prototype per cell,
// bare or cold for each (plane, case, mode), and the folds restore none, of
// any family.
func TestEachManagementCellOnce(t *testing.T) {
	ds := seed.GenerateDataset(1)
	all0, bareCold0 := restores()
	g := seed.ReplayDatasetGrid(testPool, ds, 30, 1)
	all1, bareCold1 := restores()
	if got, want := bareCold1-bareCold0, 2*30*len(seed.Modes); got != want {
		t.Errorf("grid restored %d bare/cold prototypes, want one per management cell, %d", got, want)
	}
	if got := all1 - all0; got != g.Cells() {
		t.Errorf("grid restored %d prototypes for %d cells", got, g.Cells())
	}
	g.Figure2()
	g.Table4()
	g.Causes()
	g.Coverage()
	if all2, _ := restores(); all2 != all1 {
		t.Errorf("the four folds restored %d prototypes, want none", all2-all1)
	}
}
