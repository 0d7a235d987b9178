package trace

import (
	"math"
	"testing"
	"time"

	"github.com/seed5g/seed/internal/cause"
)

func TestGenerateCorpusShape(t *testing.T) {
	ds := Generate(1)
	if ds.Procedures != 24000 {
		t.Fatalf("procedures = %d", ds.Procedures)
	}
	if len(ds.Failures) != 2832 {
		t.Fatalf("failures = %d", len(ds.Failures))
	}
	if r := ds.FailureRatio(); r < 0.10 || r > 0.13 {
		t.Fatalf("failure ratio = %.3f, paper reports >10%%", r)
	}
	if len(ds.Delivery) != 300 {
		t.Fatalf("delivery cases = %d", len(ds.Delivery))
	}
}

func TestGenerateIsDeterministic(t *testing.T) {
	a := Generate(1)
	b := Generate(1)
	for i := range a.Failures {
		if a.Failures[i] != b.Failures[i] {
			t.Fatalf("record %d differs across identical seeds", i)
		}
	}
	c := Generate(2)
	same := true
	for i := range a.Failures {
		if a.Failures[i] != c.Failures[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical datasets")
	}
}

func TestAnalysisMatchesTable1(t *testing.T) {
	ds := Generate(1)
	a := Analyze(ds, 5)

	if math.Abs(a.ControlShare-0.562) > 0.02 {
		t.Fatalf("control share = %.3f, want ≈0.562", a.ControlShare)
	}
	if math.Abs(a.DataShare-0.438) > 0.02 {
		t.Fatalf("data share = %.3f, want ≈0.438", a.DataShare)
	}

	wantTop := map[cause.Cause]float64{
		cause.MM(cause.MMUEIdentityCannotBeDerived):   0.152,
		cause.MM(cause.MMNoSuitableCellsInTA):         0.126,
		cause.MM(cause.MMPLMNNotAllowed):              0.103,
		cause.MM(cause.MMNoEPSBearerContextActivated): 0.075,
		cause.MM(cause.MMMessageTypeNotCompatible):    0.028,
		cause.SM(cause.SMServiceOptionNotSubscribed):  0.079,
		cause.SM(cause.SMInvalidMandatoryInfo):        0.059,
		cause.SM(cause.SMUserAuthFailed):              0.047,
		cause.SM(cause.SMRequestRejectedUnspec):       0.026,
		cause.SM(cause.SMInsufficientResources):       0.019,
	}
	check := func(rows []CauseShare, plane cause.Plane) {
		for _, r := range rows {
			want, inTop := wantTop[r.Cause]
			if !inTop {
				continue
			}
			if math.Abs(r.Share-want) > 0.015 {
				t.Errorf("%v share = %.3f, want ≈%.3f", r.Cause, r.Share, want)
			}
		}
	}
	check(a.TopControl, cause.ControlPlane)
	check(a.TopData, cause.DataPlane)

	// The published #1 causes must rank first.
	if a.TopControl[0].Cause != cause.MM(cause.MMUEIdentityCannotBeDerived) {
		t.Fatalf("top control cause = %v", a.TopControl[0].Cause)
	}
	// The top data-plane cause by weight is SMMissingOrUnknownDNN spread
	// across two scenarios (0.075+0.024) or SMServiceOptionNotSubscribed;
	// both are plausible #1 — require one of them.
	top := a.TopData[0].Cause
	if top != cause.SM(cause.SMServiceOptionNotSubscribed) && top != cause.SM(cause.SMMissingOrUnknownDNN) {
		t.Fatalf("top data cause = %v", top)
	}
}

func TestScenarioAssignments(t *testing.T) {
	ds := Generate(1)
	a := Analyze(ds, 5)
	for _, s := range []Scenario{ScenTransient, ScenDesync, ScenStaleConfigDevice,
		ScenStaleConfigEverywhere, ScenUserAction, ScenSilent} {
		if a.ByScenario[s] == 0 {
			t.Errorf("no cases with scenario %v", s)
		}
	}
	// User-action cases must be a small minority (the ~10.6 % + ~4.5 %
	// residue of §7.1.1).
	frac := float64(a.ByScenario[ScenUserAction]) / float64(a.Failures)
	if frac < 0.02 || frac > 0.12 {
		t.Fatalf("user-action fraction = %.3f", frac)
	}
}

func TestHealTimesOnlyWhereMeaningful(t *testing.T) {
	ds := Generate(1)
	for _, r := range ds.Failures {
		switch r.Scenario {
		case ScenTransient, ScenSilent, ScenStaleConfigEverywhere:
			if r.Heal <= 0 {
				t.Fatalf("record %d (%v) has no heal time", r.ID, r.Scenario)
			}
		case ScenDesync, ScenStaleConfigDevice, ScenUserAction:
			if r.Heal != 0 {
				t.Fatalf("record %d (%v) has unexpected heal %v", r.ID, r.Scenario, r.Heal)
			}
		}
	}
}

func TestTransientHealDistribution(t *testing.T) {
	ds := Generate(1)
	var heals []time.Duration
	for _, r := range ds.Failures {
		if r.Scenario == ScenTransient && r.Cause == cause.MM(cause.MMNoSuitableCellsInTA) {
			heals = append(heals, r.Heal)
		}
	}
	if len(heals) < 100 {
		t.Fatalf("too few transient samples: %d", len(heals))
	}
	var under2, over20 int
	for _, h := range heals {
		if h < 2*time.Second {
			under2++
		}
		if h > 20*time.Second {
			over20++
		}
	}
	// No-suitable-cells is the quick-retry class: a lognormal with median
	// 1.2 s puts most mass below 2 s (the sub-2 s recoveries of §3.2)
	// while keeping a tail above 20 s.
	if f := float64(under2) / float64(len(heals)); f < 0.4 || f > 0.85 {
		t.Fatalf("fraction under 2 s = %.2f", f)
	}
	if over20 == 0 {
		t.Fatal("no long-tail heal times")
	}
}

func TestDeliveryKindsMix(t *testing.T) {
	ds := Generate(1)
	counts := map[DeliveryKind]int{}
	for _, r := range ds.Delivery {
		counts[r.Kind]++
	}
	for _, k := range []DeliveryKind{DeliveryTCPBlock, DeliveryUDPBlock, DeliveryDNSOutage, DeliveryStalledGateway} {
		if counts[k] < 20 {
			t.Errorf("delivery kind %v underrepresented: %d", k, counts[k])
		}
	}
}

func TestRenderTable1(t *testing.T) {
	ds := Generate(1)
	out := Analyze(ds, 5).RenderTable1()
	for _, want := range []string{
		"Table 1", "Control Plane", "Data Plane",
		"UE identity cannot be derived by the network",
		"Requested service option not subscribed",
	} {
		if !contains(out, want) {
			t.Errorf("Table 1 output missing %q:\n%s", want, out)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 ||
		(len(s) > 0 && indexOf(s, sub) >= 0))
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestScenarioAndKindStrings(t *testing.T) {
	if ScenTransient.String() != "transient" || ScenDesync.String() != "state-desync" {
		t.Fatal("Scenario strings drifted")
	}
	if DeliveryDNSOutage.String() != "dns-outage" {
		t.Fatal("DeliveryKind strings drifted")
	}
	if Scenario(99).String() == "" || DeliveryKind(99).String() == "" {
		t.Fatal("fallback strings empty")
	}
}
