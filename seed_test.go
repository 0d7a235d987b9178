package seed_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	seed "github.com/seed5g/seed"
)

func TestTestbedBootAndAttach(t *testing.T) {
	tb := seed.New(1)
	for _, mode := range []seed.Mode{seed.ModeLegacy, seed.ModeSEEDU, seed.ModeSEEDR} {
		d := tb.NewDevice(mode)
		d.Start()
		if !tb.RunUntil(d.Connected, time.Minute) {
			t.Fatalf("%v device never connected", mode)
		}
		if !d.Registered() || d.State() != "REGISTERED" {
			t.Fatalf("%v: state %s", mode, d.State())
		}
	}
	if len(tb.Devices()) != 3 {
		t.Fatalf("devices = %d", len(tb.Devices()))
	}
}

func TestDeterministicTestbed(t *testing.T) {
	run := func() time.Duration {
		tb := seed.New(42)
		d := tb.NewDevice(seed.ModeSEEDU)
		d.Start()
		tb.RunUntil(d.Connected, time.Minute)
		return tb.Now()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("non-deterministic attach: %v vs %v", a, b)
	}
}

func TestDatasetFacade(t *testing.T) {
	ds := seed.GenerateDataset(1)
	if len(ds.Failures()) != 2832 || ds.Procedures() != 24000 {
		t.Fatalf("corpus shape: %d/%d", len(ds.Failures()), ds.Procedures())
	}
	if ds.FailureRatio() < 0.1 {
		t.Fatal("failure ratio too low")
	}
	out, err := ds.MarshalJSON()
	if err != nil || len(out) < 10000 {
		t.Fatalf("json export: %d bytes, err=%v", len(out), err)
	}
	if ds.RenderTable1() == "" {
		t.Fatal("empty table 1")
	}
}

// TestDatasetDigestPinned pins the synthesized corpus for seeds 1–3. The
// dataset draws Table 1's cause mix and heal times from internal/workload's
// stationary mix, the table the workload corpora use too, so a
// recalibration moves both together; these digests move with it.
func TestDatasetDigestPinned(t *testing.T) {
	want := map[int64]string{
		1: "b3043b3139170d35223b6bf3c6f68ae4937749adf0eac4420b03926018f2480d",
		2: "6f68dbbfd34bdbfb66920d10db2ea1f529d01745e0ebcc0d2671c0ecb1dfc882",
		3: "5a12af644f19fbaf473cf6e0a7a11809a2d162ccc88800dd8fffc23704eb9119",
	}
	for s := int64(1); s <= 3; s++ {
		out, err := seed.GenerateDataset(s).MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(out)
		if got := hex.EncodeToString(sum[:]); got != want[s] {
			t.Errorf("seed %d: dataset digest %s, want %s", s, got, want[s])
		}
	}
}

// scenarioCase finds the first dataset case matching a scenario and plane.
func scenarioCase(t *testing.T, scen seed.FailureScenario, control bool) seed.FailureCase {
	t.Helper()
	for _, fc := range seed.GenerateDataset(1).Failures() {
		if fc.Scenario == scen && fc.ControlPlane == control {
			return fc
		}
	}
	t.Fatalf("no case with scenario %v control=%v", scen, control)
	return seed.FailureCase{}
}

func TestReplayTransientControl(t *testing.T) {
	fc := scenarioCase(t, seed.ScenarioTransient, true)
	legacy := seed.ReplayManagement(fc, seed.ModeLegacy, 7)
	sr := seed.ReplayManagement(fc, seed.ModeSEEDR, 7)
	if !legacy.Recovered || !sr.Recovered {
		t.Fatalf("not recovered: legacy=%v seed=%v", legacy, sr)
	}
	// Transients recover in both worlds; SEED must not be slower than the
	// legacy retry grid by any meaningful amount.
	if sr.Disruption > legacy.Disruption+5*time.Second {
		t.Fatalf("SEED slower on transient: %v vs %v", sr.Disruption, legacy.Disruption)
	}
}

func TestReplayDesyncContrast(t *testing.T) {
	fc := scenarioCase(t, seed.ScenarioDesync, true)
	legacy := seed.ReplayManagement(fc, seed.ModeLegacy, 7)
	su := seed.ReplayManagement(fc, seed.ModeSEEDU, 7)
	sr := seed.ReplayManagement(fc, seed.ModeSEEDR, 7)
	if !su.Recovered || !sr.Recovered {
		t.Fatal("SEED did not recover desync")
	}
	if su.Disruption > 15*time.Second || sr.Disruption > 10*time.Second {
		t.Fatalf("SEED desync recovery too slow: U=%v R=%v", su.Disruption, sr.Disruption)
	}
	if legacy.Recovered && legacy.Disruption < 4*su.Disruption {
		t.Fatalf("legacy desync too fast: %v (SEED-U %v)", legacy.Disruption, su.Disruption)
	}
}

func TestReplayStaleDNNContrast(t *testing.T) {
	fc := scenarioCase(t, seed.ScenarioStaleConfigDevice, false)
	legacy := seed.ReplayManagement(fc, seed.ModeLegacy, 7)
	su := seed.ReplayManagement(fc, seed.ModeSEEDU, 7)
	sr := seed.ReplayManagement(fc, seed.ModeSEEDR, 7)
	if !su.Recovered || !sr.Recovered {
		t.Fatal("SEED did not recover stale DNN")
	}
	if su.Disruption > 3*time.Second || sr.Disruption > 2*time.Second {
		t.Fatalf("SEED stale-DNN too slow: U=%v R=%v", su.Disruption, sr.Disruption)
	}
	if !legacy.Recovered {
		t.Fatal("legacy must eventually recover via the Android modem restart")
	}
	// The legacy path is the Android ladder: minutes, not seconds.
	if legacy.Disruption < 2*time.Minute {
		t.Fatalf("legacy stale-DNN recovered in %v; expected minutes", legacy.Disruption)
	}
}

func TestReplayStaleEverywhereContrast(t *testing.T) {
	fc := scenarioCase(t, seed.ScenarioStaleConfigEverywhere, false)
	su := seed.ReplayManagement(fc, seed.ModeSEEDU, 7)
	if !su.Recovered || su.Disruption > 5*time.Second {
		t.Fatalf("SEED-U stale-everywhere: %+v", su)
	}
	legacy := seed.ReplayManagement(fc, seed.ModeLegacy, 7)
	if !legacy.Recovered {
		t.Fatal("legacy should recover at the OTA horizon")
	}
	if legacy.Disruption < 10*time.Minute {
		t.Fatalf("legacy recovered before the OTA horizon: %v", legacy.Disruption)
	}
}

func TestReplayUserAction(t *testing.T) {
	fc := scenarioCase(t, seed.ScenarioUserAction, false)
	legacy := seed.ReplayManagement(fc, seed.ModeLegacy, 7)
	su := seed.ReplayManagement(fc, seed.ModeSEEDU, 7)
	if legacy.Recovered || su.Recovered {
		t.Fatal("user-action case recovered without the user")
	}
	if legacy.UserNotified {
		t.Fatal("legacy has no notification path")
	}
	if !su.UserNotified {
		t.Fatal("SEED did not notify the user")
	}
}

func TestReplaySilent(t *testing.T) {
	fc := scenarioCase(t, seed.ScenarioSilent, true)
	su := seed.ReplayManagement(fc, seed.ModeSEEDU, 7)
	if !su.Recovered {
		t.Fatal("SEED did not recover silent failure")
	}
}

func TestReplayDeliveryStalledGateway(t *testing.T) {
	dc := seed.DeliveryCase{ID: 0, Kind: seed.DeliveryStalledGateway}
	legacy := seed.ReplayDelivery(dc, seed.ModeLegacy, 7)
	sr := seed.ReplayDelivery(dc, seed.ModeSEEDR, 7)
	if !legacy.Detected || !legacy.Recovered {
		t.Fatalf("legacy: %+v", legacy)
	}
	if !sr.Detected || !sr.Recovered {
		t.Fatalf("SEED-R: %+v", sr)
	}
	if sr.HandlingTime > 3*time.Second {
		t.Fatalf("SEED-R handling = %v, want ≲1 s", sr.HandlingTime)
	}
	if legacy.HandlingTime < 5*time.Second {
		t.Fatalf("legacy handling = %v, want ladder-scale", legacy.HandlingTime)
	}
}

func TestReplayDeliveryUDPBlock(t *testing.T) {
	dc := seed.DeliveryCase{ID: 0, Kind: seed.DeliveryUDPBlock}
	legacy := seed.ReplayDelivery(dc, seed.ModeLegacy, 7)
	if legacy.Detected && legacy.Recovered {
		t.Fatalf("legacy recovered a UDP block: %+v", legacy)
	}
	sr := seed.ReplayDelivery(dc, seed.ModeSEEDR, 7)
	if !sr.Recovered || sr.HandlingTime > 5*time.Second {
		t.Fatalf("SEED-R UDP block: %+v", sr)
	}
}

func TestReplayDeliveryTCPBlockAndDNS(t *testing.T) {
	for _, kind := range []seed.DeliveryFailureKind{seed.DeliveryTCPBlock, seed.DeliveryDNSOutage} {
		sr := seed.ReplayDelivery(seed.DeliveryCase{Kind: kind}, seed.ModeSEEDR, 7)
		if !sr.Recovered {
			t.Fatalf("SEED-R did not recover %v: %+v", kind, sr)
		}
		legacy := seed.ReplayDelivery(seed.DeliveryCase{Kind: kind}, seed.ModeLegacy, 7)
		if legacy.Recovered {
			t.Fatalf("legacy recovered network-side %v: %+v", kind, legacy)
		}
	}
}

func TestInjectionAndNoticeAPIs(t *testing.T) {
	tb := seed.New(3)
	d := tb.NewDevice(seed.ModeSEEDU)
	d.Start()
	if !tb.RunUntil(d.Connected, time.Minute) {
		t.Fatal("no attach")
	}
	tb.ExpirePlan(d)
	tb.ReleaseSessions(d)
	tb.Advance(2 * time.Minute)
	if d.UserNoticeCount() == 0 {
		t.Fatal("no user notice for expired plan")
	}
	tb.ReactivatePlan(d)
	if !tb.RunUntil(d.Connected, 20*time.Minute) {
		t.Fatal("no recovery after reactivation")
	}
}

func TestAppFacade(t *testing.T) {
	tb := seed.New(4)
	d := tb.NewDevice(seed.ModeSEEDR)
	web := d.AddApp(seed.AppWeb)
	d.Start()
	tb.RunUntil(d.Connected, time.Minute)
	web.Start()
	started := tb.Now()
	tb.Advance(time.Minute)
	sent, ok, _, _ := web.Requests()
	if sent == 0 || ok == 0 || web.LastSuccess() < started {
		t.Fatalf("web app idle: sent=%d ok=%d last success %v (started %v)", sent, ok, web.LastSuccess(), started)
	}
	web.Stop()
	if seed.AppVideo.Buffer() != 30*time.Second {
		t.Fatal("video buffer drifted")
	}
}
