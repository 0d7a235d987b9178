package core

// Tests for the §7.3 security analysis and the §9 extensions.

import (
	"testing"
	"time"

	"github.com/seed5g/seed/internal/cause"
	"github.com/seed5g/seed/internal/core5g"
	"github.com/seed5g/seed/internal/crypto5g"
	"github.com/seed5g/seed/internal/modem"
	"github.com/seed5g/seed/internal/nas"
	"github.com/seed5g/seed/internal/report"
	"github.com/seed5g/seed/internal/sim"
)

// TestForgedDiagnosisIgnored: an adversary without the in-SIM key crafts a
// DFlag Authentication Request; the applet must ACK (protocol compliance)
// but never act on the payload.
func TestForgedDiagnosisIgnored(t *testing.T) {
	w := newWorld(31)
	d := w.addDevice(t, "310170000031001", SEEDU)
	attach(t, w, d)

	// Forge: seal a valid-looking diagnosis under the WRONG key.
	var wrongKey [16]byte
	copy(wrongKey[:], "attacker-key-000")
	forger := NewChannelEnvelope(wrongKey)
	evil := DiagMessage{Kind: DiagSuggestAction, Plane: cause.ControlPlane, Action: ActionB1}
	sealed, err := forger.Seal(crypto5g.Downlink, evil.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range FragmentAUTN(sealed) {
		w.net.AMF.MarkDiagPending(d.Cfg.IMSI)
		w.net.AMF.SendRaw(d.Cfg.IMSI, &nas.AuthenticationRequest{RAND: nas.DFlagRAND, AUTN: frag})
		w.k.RunFor(time.Second)
	}
	w.k.RunFor(10 * time.Second)

	st := d.Applet.Stats()
	if st.DiagsReceived != 0 {
		t.Fatalf("forged diagnosis accepted: %d", st.DiagsReceived)
	}
	if len(st.Actions) != 0 {
		t.Fatalf("forged diagnosis triggered actions: %v", st.Actions)
	}
	if st.FragmentsSeen == 0 {
		t.Fatal("fragments never reached the applet (test broken)")
	}
}

// TestReplayedDiagnosisRejected: capturing and replaying a legitimate
// sealed diagnosis must not trigger a second handling (envelope counter).
func TestReplayedDiagnosisRejected(t *testing.T) {
	w := newWorld(32)
	d := w.addDevice(t, "310170000032001", SEEDU)
	attach(t, w, d)

	// Legitimate delivery, capturing the AUTN fragment off the "air".
	var captured [][16]byte
	sub, _ := w.net.UDM.Subscriber(d.Cfg.IMSI)
	env := NewChannelEnvelope(sub.K)
	msg := DiagMessage{Kind: DiagCongestion, Plane: cause.ControlPlane, Code: 22, WaitSeconds: 1}
	sealed, _ := env.Seal(crypto5g.Downlink, msg.Marshal())
	captured = FragmentAUTN(sealed)
	for _, frag := range captured {
		w.net.AMF.MarkDiagPending(d.Cfg.IMSI)
		w.net.AMF.SendRaw(d.Cfg.IMSI, &nas.AuthenticationRequest{RAND: nas.DFlagRAND, AUTN: frag})
		w.k.RunFor(time.Second)
	}
	if d.Applet.Stats().DiagsReceived != 1 {
		t.Fatalf("legitimate diag not received: %d", d.Applet.Stats().DiagsReceived)
	}

	// Replay the captured fragments verbatim.
	for _, frag := range captured {
		w.net.AMF.MarkDiagPending(d.Cfg.IMSI)
		w.net.AMF.SendRaw(d.Cfg.IMSI, &nas.AuthenticationRequest{RAND: nas.DFlagRAND, AUTN: frag})
		w.k.RunFor(time.Second)
	}
	if d.Applet.Stats().DiagsReceived != 1 {
		t.Fatal("replayed diagnosis was accepted")
	}
}

// TestCarrierAppFiltersMalformedReports: the §7.3 input filtering.
func TestCarrierAppFiltersMalformedReports(t *testing.T) {
	w := newWorld(33)
	d := w.addDevice(t, "310170000033001", SEEDR)
	attach(t, w, d)

	bad := []report.FailureReport{
		{Type: 0, Direction: report.DirBoth},                      // bad type
		{Type: report.FailTCP, Direction: 0},                      // bad direction
		{Type: report.FailDNS, Direction: report.DirBoth},         // empty domain
		{Type: 9, Direction: report.DirBoth, Domain: "x.example"}, // out of range
	}
	for _, r := range bad {
		d.CApp.ReportAppFailure(r)
	}
	w.k.RunFor(5 * time.Second)
	if got := d.CApp.Stats().FilteredReports; got != len(bad) {
		t.Fatalf("filtered = %d, want %d", got, len(bad))
	}
	if d.Applet.Stats().ReportsReceived != 0 {
		t.Fatal("malformed report reached the SIM")
	}
}

// TestAppletInstallRequiresCarrierKey is §7.3's "applet could only be
// installed with the carrier's key" at the device level.
func TestAppletInstallRequiresCarrierKey(t *testing.T) {
	var carrier, attacker [16]byte
	copy(carrier[:], "real-carrier-key")
	copy(attacker[:], "evil-carrie-key!")
	card, err := sim.NewCard(sim.DefaultEEPROM, sim.DefaultRAM, carrier, sim.Profile{
		IMSI: "1", PLMNs: []uint32{modem.ServingPLMN}, DNN: "internet",
	})
	if err != nil {
		t.Fatal(err)
	}
	applet := NewApplet(nil, card, "", carrier, DefaultAppletConfig(), nil)
	if err := card.InstallApplet(applet, sim.InstallMAC(attacker, AppletAID)); err == nil {
		t.Fatal("applet installed with an attacker MAC")
	}
	if err := card.InstallApplet(applet, sim.InstallMAC(carrier, AppletAID)); err != nil {
		t.Fatal(err)
	}
}

// TestLegacyDeviceNeverReceivesDiagnosis: the infrastructure must not send
// DFlag challenges to subscribers without the applet (it would break their
// AKA).
func TestLegacyDeviceNeverReceivesDiagnosis(t *testing.T) {
	w := newWorld(34)
	d := w.addDevice(t, "310170000034001", Legacy)
	attach(t, w, d)
	w.net.Inj.Add(&core5g.RejectRule{
		UE: d.Cfg.IMSI, Plane: cause.ControlPlane, Cause: cause.MMCongestion, Remaining: 2,
	})
	d.Mdm.SimulateMobility()
	w.k.RunFor(time.Minute)
	if w.plugin.Stats().DiagsSent != 0 {
		t.Fatalf("plugin sent %d diagnoses to a legacy subscriber", w.plugin.Stats().DiagsSent)
	}
	if d.Mdm.State() != modem.StateRegistered {
		t.Fatal("legacy device did not recover on its own timers")
	}
}

// TestActionRateLimiting: the same reset must not fire twice within the
// rate-limit gap, even under a diagnosis storm (§4.4.2).
func TestActionRateLimiting(t *testing.T) {
	w := newWorld(35)
	d := w.addDevice(t, "310170000035001", SEEDR)
	attach(t, w, d)

	for i := 0; i < 10; i++ {
		w.plugin.SendDiagnosis(d.Cfg.IMSI, DiagMessage{
			Kind: DiagSuggestAction, Plane: cause.DataPlane, Code: 150, Action: ActionB3,
		})
		w.k.RunFor(200 * time.Millisecond)
	}
	w.k.RunFor(5 * time.Second)
	if got := d.Applet.Stats().Actions[ActionB3]; got > 2 {
		t.Fatalf("B3 executed %d times in a 2 s storm; rate limit broken", got)
	}
}

// TestRootlessProactiveAT: the §9 extension — with RUN AT COMMAND support,
// SEED-U reaches SEED-R speeds without root.
func TestRootlessProactiveAT(t *testing.T) {
	run := func(proactiveAT bool) time.Duration {
		w := newWorld(36)
		d := w.addDeviceWithApplet(t, "310170000036001", proactiveAT)
		attach(t, w, d)
		w.net.AMF.DesyncIdentity(d.Cfg.IMSI)
		d.Mdm.SimulateMobility()
		onset := w.k.Now()
		recovered := time.Duration(-1)
		onConnectivity(w, d, func(up bool) {
			if up && recovered < 0 {
				recovered = w.k.Now() - onset
				w.k.Stop()
			}
		})
		w.k.RunFor(5 * time.Minute)
		return recovered
	}
	plain := run(false)   // A1 path ≈ 2 s wait + 3.5 s SIM re-init
	rootless := run(true) // B1 via RUN AT ≈ 2 s wait + 0.8 s reboot
	if plain < 0 || rootless < 0 {
		t.Fatalf("not recovered: plain=%v rootless=%v", plain, rootless)
	}
	if rootless >= plain {
		t.Fatalf("proactive-AT (%v) not faster than plain SEED-U (%v)", rootless, plain)
	}
	if rootless > 5*time.Second {
		t.Fatalf("rootless recovery = %v, want SEED-R-like (~3.3 s)", rootless)
	}
}

// addDeviceWithApplet builds a SEED-U device with the proactive-AT option.
func (w *world) addDeviceWithApplet(t *testing.T, imsi string, proactiveAT bool) *Device {
	t.Helper()
	var key, op [16]byte
	copy(key[:], imsi+"-k-material-pad")
	copy(op[:], "operator-op-code")
	prof := sim.Profile{
		IMSI: imsi, K: key, OP: op,
		PLMNs: []uint32{modem.ServingPLMN},
		DNN:   "internet",
		DNS:   [][4]byte{core5g.LDNSAddr},
		SST:   1,
	}
	err := w.net.UDM.AddSubscriber(&core5g.Subscriber{
		IMSI: imsi, K: key, OP: op,
		Authorized: true, PlanActive: true, SEEDEnabled: true,
		DefaultDNN:  "internet",
		AllowedDNNs: []string{"internet"},
		Sessions: map[string]core5g.SessionConfig{
			"internet": {DNS: []nas.Addr{core5g.LDNSAddr}, QoS: nas.QoS{FiveQI: 9}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultDeviceConfig(imsi, prof, carrierKey, SEEDU)
	cfg.Applet.UseProactiveAT = proactiveAT
	d, err := NewDevice(w.k, cfg, w.net)
	if err != nil {
		t.Fatal(err)
	}
	return d
}
