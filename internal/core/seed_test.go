package core

import (
	"testing"
	"time"

	"github.com/seed5g/seed/internal/cause"
	"github.com/seed5g/seed/internal/core5g"
	"github.com/seed5g/seed/internal/dataplane"
	"github.com/seed5g/seed/internal/modem"
	"github.com/seed5g/seed/internal/nas"
	"github.com/seed5g/seed/internal/sched"
	"github.com/seed5g/seed/internal/sim"
)

var carrierKey = [16]byte{7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7}

type world struct {
	k      *sched.Kernel
	net    *core5g.Network
	plugin *InfraPlugin
	inet   *dataplane.Internet
}

func newWorld(seed int64) *world {
	k := sched.New(seed)
	net := core5g.NewNetwork(k)
	return &world{
		k: k, net: net,
		plugin: NewInfraPlugin(k, net),
		inet:   dataplane.NewInternet(k, net),
	}
}

func (w *world) addDevice(t *testing.T, imsi string, mode DeviceMode) *Device {
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
		Authorized: true, PlanActive: true,
		SEEDEnabled: mode != Legacy,
		DefaultDNN:  "internet",
		AllowedDNNs: []string{"internet", "ims"},
		Sessions: map[string]core5g.SessionConfig{
			"internet": {DNS: []nas.Addr{core5g.LDNSAddr}, QoS: nas.QoS{FiveQI: 9}},
			"ims":      {DNS: []nas.Addr{core5g.LDNSAddr}, QoS: nas.QoS{FiveQI: 5}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDevice(w.k, DefaultDeviceConfig(imsi, prof, carrierKey, mode), w.net)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func attach(t *testing.T, w *world, d *Device) {
	t.Helper()
	d.Start()
	w.k.RunFor(30 * time.Second)
	if d.Mdm.State() != modem.StateRegistered || !d.Connected() {
		t.Fatalf("device %s did not come up: state=%v connected=%v",
			d.Cfg.IMSI, d.Mdm.State(), d.Connected())
	}
}

// watch hands fn every transition a kernel announces, as its observer.
type watch func(t sched.Transition, a, b int)

// Transition implements sched.TransitionObserver.
func (fn watch) Transition(t sched.Transition, a, b int) { fn(t, a, b) }

// onConnectivity observes w's kernel and hands fn each change of
// d.Connected() that an announced transition brings.
func onConnectivity(w *world, d *Device, fn func(up bool)) {
	up := d.Connected()
	w.k.Observe(watch(func(sched.Transition, int, int) {
		if now := d.Connected(); now != up {
			up = now
			fn(up)
		}
	}))
}

// awaitSuccess runs w's kernel event by event for up to d and returns the
// instant of app's first successful response later than after, -1 if none.
func awaitSuccess(w *world, app *dataplane.App, after, d time.Duration) time.Duration {
	end := w.k.Now() + d
	for w.k.Step() && w.k.Now() <= end {
		if at := app.LastSuccess(); at > after {
			return at
		}
	}
	return -1
}

func TestSEEDDeviceBootsInAllModes(t *testing.T) {
	for _, mode := range []DeviceMode{Legacy, SEEDU, SEEDR} {
		w := newWorld(1)
		d := w.addDevice(t, "310170000001001", mode)
		attach(t, w, d)
		if mode == SEEDR && d.Applet.Mode() != ModeR {
			t.Fatalf("%v: applet mode = %v", mode, d.Applet.Mode())
		}
		if mode == SEEDU && d.Applet.Mode() != ModeU {
			t.Fatalf("%v: applet mode = %v", mode, d.Applet.Mode())
		}
	}
}

// The headline data-plane case: the subscription's DNN changed and the
// device's cached DNN is stale everywhere (modem cache AND SIM). Legacy
// loops on cause-27 rejects; SEED receives the suggested DNN via the
// Auth-Request channel and recovers in about a second. Disruption is
// measured from the first data-plane reject.
func staleDNNScenario(t *testing.T, mode DeviceMode) (recovery time.Duration, d *Device) {
	w := newWorld(2)
	d = w.addDevice(t, "310170000002001", mode)

	// Operator migrated the subscription to "internet2"; the device's
	// profile still says "internet" everywhere.
	sub, _ := w.net.UDM.Subscriber(d.Cfg.IMSI)
	sub.DefaultDNN = "internet2"
	sub.AllowedDNNs = []string{"internet2"}
	sub.Sessions["internet2"] = sub.Sessions["internet"]
	delete(sub.Sessions, "internet")

	onset := time.Duration(-1)
	recovered := time.Duration(-1)
	d.OnReject = func(epd byte, code uint8) {
		if epd == nas.EPD5GSM && onset < 0 {
			onset = w.k.Now()
		}
	}
	onConnectivity(w, d, func(up bool) {
		if up && recovered < 0 && onset >= 0 {
			recovered = w.k.Now() - onset
			w.k.Stop()
		}
	})
	d.Start()
	w.k.RunFor(20 * time.Minute)
	if onset < 0 {
		t.Fatal("failure never manifested")
	}
	return recovered, d
}

func TestStaleDNNSEEDUvsLegacy(t *testing.T) {
	legacyT, _ := staleDNNScenario(t, Legacy)
	seedUT, du := staleDNNScenario(t, SEEDU)
	seedRT, dr := staleDNNScenario(t, SEEDR)

	if seedUT < 0 || seedRT < 0 {
		t.Fatalf("SEED did not recover: U=%v R=%v", seedUT, seedRT)
	}
	if seedUT > 5*time.Second {
		t.Fatalf("SEED-U recovery %v, want ~1 s", seedUT)
	}
	if seedRT > 3*time.Second {
		t.Fatalf("SEED-R recovery %v, want ≲1 s", seedRT)
	}
	if legacyT >= 0 && legacyT < 10*seedUT {
		t.Fatalf("legacy recovered too fast (%v) to show the contrast vs %v", legacyT, seedUT)
	}
	// SEED must have delivered the new DNN to the SIM.
	dnn, err := du.Card.FS().Read(sim.EFDNN)
	if err != nil || string(dnn) != "internet2" {
		t.Fatalf("SIM EF_DNN = %q err=%v, want internet2", dnn, err)
	}
	if s, okS := dr.dataSession(); !okS || s.DNN != "internet2" {
		t.Fatalf("SEED-R active session DNN wrong")
	}
}

// Identity desync: the AMF loses the UE context; legacy loops on cause 9
// with the stale GUTI; SEED's profile reload (A1) / reattach (B2) clears
// the stale identity and recovers.
func identityDesyncScenario(t *testing.T, mode DeviceMode) time.Duration {
	w := newWorld(3)
	d := w.addDevice(t, "310170000003001", mode)
	attach(t, w, d)

	start := w.k.Now()
	w.net.AMF.DesyncIdentity(d.Cfg.IMSI)
	// Mobility event: the modem re-registers (e.g. TA change) with its
	// now-stale GUTI. (Local deregistration only — the network already
	// lost the context, so no Deregistration Request reaches it.)
	d.Mdm.Deregister()
	d.Mdm.Attach()

	recovered := time.Duration(-1)
	onConnectivity(w, d, func(up bool) {
		if up && recovered < 0 {
			recovered = w.k.Now() - start
			w.k.Stop()
		}
	})
	w.k.RunFor(30 * time.Minute)
	return recovered
}

func TestIdentityDesyncRecovery(t *testing.T) {
	legacyT := identityDesyncScenario(t, Legacy)
	seedUT := identityDesyncScenario(t, SEEDU)
	seedRT := identityDesyncScenario(t, SEEDR)
	if seedUT < 0 || seedRT < 0 {
		t.Fatalf("SEED did not recover: U=%v R=%v", seedUT, seedRT)
	}
	// SEED-U: 2 s wait + profile reload (≈3.5 s) + attach ≈ 6–8 s.
	if seedUT > 15*time.Second {
		t.Fatalf("SEED-U recovery = %v", seedUT)
	}
	// SEED-R: 2 s wait + modem reset (≈0.8 s) + search + attach ≈ 3–4 s.
	if seedRT > 10*time.Second || seedRT > seedUT {
		t.Fatalf("SEED-R recovery = %v (U = %v)", seedRT, seedUT)
	}
	if legacyT >= 0 && legacyT < 2*seedUT {
		t.Fatalf("legacy (%v) did not show the expected contrast (U=%v)", legacyT, seedUT)
	}
}

// TCP policy block: only SEED recovers (the report triggers network-side
// policy fixing); Android's ladder cannot.
func TestTCPBlockOnlySEEDRecovers(t *testing.T) {
	run := func(mode DeviceMode) (recovered time.Duration) {
		w := newWorld(4)
		d := w.addDevice(t, "310170000004001", mode)
		app := d.AddApp(dataplane.Web)
		attach(t, w, d)
		app.Start()
		w.k.RunFor(30 * time.Second)

		start := w.k.Now()
		w.net.UPF.AddBlock(d.Cfg.IMSI, core5g.PolicyBlock{Proto: nas.ProtoTCP})
		if at := awaitSuccess(w, app, start+time.Second, 15*time.Minute); at >= 0 {
			return at - start
		}
		return -1
	}
	if legacyT := run(Legacy); legacyT >= 0 && legacyT < 10*time.Minute {
		t.Fatalf("legacy recovered a network-side TCP block in %v", legacyT)
	}
	// End-to-end recovery = app detection (two 5 s request cycles with
	// 2 s timeouts ≈ 9 s) + report + network-side fix (sub-second).
	seedRT := run(SEEDR)
	if seedRT < 0 || seedRT > 15*time.Second {
		t.Fatalf("SEED-R TCP-block recovery = %v, want seconds", seedRT)
	}
	seedUT := run(SEEDU)
	if seedUT < 0 || seedUT > 20*time.Second {
		t.Fatalf("SEED-U TCP-block recovery = %v", seedUT)
	}
}

// UDP blocking is invisible to Android but SEED's app report catches it.
func TestUDPBlockDetectedViaAppReport(t *testing.T) {
	w := newWorld(5)
	d := w.addDevice(t, "310170000005001", SEEDR)
	ar := d.AddApp(dataplane.EdgeAR)
	attach(t, w, d)
	ar.Start()
	w.k.RunFor(10 * time.Second)

	start := w.k.Now()
	w.net.UPF.AddBlock(d.Cfg.IMSI, core5g.PolicyBlock{Proto: nas.ProtoUDP})
	recovered := time.Duration(-1)
	if at := awaitSuccess(w, ar, start+200*time.Millisecond, 5*time.Minute); at >= 0 {
		recovered = at - start
	}
	if recovered < 0 || recovered > 5*time.Second {
		t.Fatalf("AR UDP-block recovery = %v, want sub-second-ish", recovered)
	}
	if d.Mon.Stalled() {
		t.Fatal("Android should never have noticed the UDP block")
	}
	stalls, _ := d.Mon.Stats()
	if stalls != 0 {
		t.Fatalf("Android declared %d stalls for a UDP block", stalls)
	}
	if w.plugin.Stats().ReportsIn == 0 {
		t.Fatal("no uplink report reached the infrastructure")
	}
	if w.plugin.Stats().PolicyFixes == 0 {
		t.Fatal("infrastructure did not fix the policy")
	}
}

// Carrier LDNS outage: SEED points the session at the public resolver.
func TestDNSOutageRecovery(t *testing.T) {
	w := newWorld(6)
	d := w.addDevice(t, "310170000006001", SEEDR)
	web := d.AddApp(dataplane.Web)
	attach(t, w, d)
	web.Start()
	w.k.RunFor(20 * time.Second)

	start := w.k.Now()
	w.net.UPF.SetLDNSDown(true)
	fixed := time.Duration(-1)
	// Recovery = a DNS answer after the outage (queries now go to 8.8.8.8).
	probe := w.k.Every(500*time.Millisecond, func() {
		if fixed < 0 && d.DNSServer() == core5g.PublicDNSAddr {
			fixed = w.k.Now() - start
			w.k.Stop()
		}
	})
	defer probe.Stop()
	w.k.RunFor(10 * time.Minute)
	// Detection is paced by the web app's ~once-a-minute DNS cadence (two
	// consecutive timeouts trigger the report); the fix itself lands in
	// milliseconds once reported.
	if fixed < 0 || fixed > 4*time.Minute {
		t.Fatalf("DNS fix time = %v", fixed)
	}
	if w.plugin.Stats().DNSFixes == 0 {
		t.Fatal("plugin recorded no DNS fix")
	}
}

// Fig 6: the fast data-plane reset must not drop the registration.
func TestFastDataResetKeepsRegistration(t *testing.T) {
	w := newWorld(7)
	d := w.addDevice(t, "310170000007001", SEEDR)
	attach(t, w, d)

	attachesBefore := d.Mdm.Stats().Attaches
	before, _ := d.dataSession()
	idBefore := before.ID // a dropped session is recycled: keep its ID, not the pointer
	d.CApp.FastDataReset()
	w.k.RunFor(5 * time.Second)

	if d.Mdm.Stats().Attaches != attachesBefore {
		t.Fatal("fast data reset triggered a reattach")
	}
	s, okS := d.dataSession()
	if !okS {
		t.Fatal("no data session after fast reset")
	}
	if s.ID == idBefore {
		t.Fatal("session was not actually reset")
	}
	// The DIAG session must be gone.
	for _, sess := range d.Mdm.Sessions() {
		if sess.DNN == "DIAG" {
			t.Fatal("DIAG session leaked")
		}
	}
	if w.net.GNB.BearerCount(d.Cfg.IMSI) != 1 {
		t.Fatalf("bearers = %d", w.net.GNB.BearerCount(d.Cfg.IMSI))
	}
}

// Congestion warning: the SIM must wait, not reset.
func TestCongestionWarningSuppressesReset(t *testing.T) {
	w := newWorld(8)
	d := w.addDevice(t, "310170000008001", SEEDU)
	attach(t, w, d)

	w.plugin.SetCongestion(true, 30)
	w.net.Inj.Add(&core5g.RejectRule{
		UE: d.Cfg.IMSI, Plane: cause.ControlPlane,
		Cause: cause.MMCongestion, Remaining: 1,
	})
	d.Mdm.Deregister()
	d.Mdm.Attach()
	w.k.RunFor(10 * time.Second)

	st := d.Applet.Stats()
	if st.CongestionWaits == 0 {
		t.Fatal("no congestion wait recorded")
	}
	if n := st.Actions[ActionA1] + st.Actions[ActionA2]; n != 0 {
		t.Fatalf("applet reset during congestion: %v", st.Actions)
	}
}

// Expired plan: SEED notifies the user instead of resetting forever.
func TestUserActionNotification(t *testing.T) {
	w := newWorld(9)
	d := w.addDevice(t, "310170000009001", SEEDU)
	attach(t, w, d)
	proactives := d.Card.Stats().Proactives

	sub, _ := w.net.UDM.Subscriber(d.Cfg.IMSI)
	sub.PlanActive = false
	w.net.SMF.ReleaseAll(d.Cfg.IMSI, true)
	w.k.After(100*time.Millisecond, func() {
		d.Mdm.EstablishSession("internet", nas.SessionIPv4)
	})
	w.k.RunFor(time.Minute)

	// The applet raised the notice and the modem fetched its DISPLAY TEXT
	// from the card.
	if d.Applet.Stats().UserNotices == 0 {
		t.Fatal("applet did not count the notice")
	}
	if d.Card.Stats().Proactives == proactives || d.Card.PendingProactive() != 0 {
		t.Fatalf("no user notification for expired plan: %d proactive commands fetched, %d pending",
			d.Card.Stats().Proactives-proactives, d.Card.PendingProactive())
	}
}

// The 2 s transient window: a failure that heals immediately must not
// trigger a reset.
func TestTransientFailureCancelsReset(t *testing.T) {
	w := newWorld(10)
	d := w.addDevice(t, "310170000010001", SEEDU)

	// The very first registration hits transient congestion; the modem's
	// abnormal-case quick retry succeeds within the 2 s window, so the
	// applet's scheduled reset must be cancelled.
	w.net.Inj.Add(&core5g.RejectRule{
		UE: d.Cfg.IMSI, Plane: cause.ControlPlane,
		Cause: cause.MMCongestion, Remaining: 1,
	})
	d.Start()
	w.k.RunFor(time.Minute)

	if d.Mdm.State() != modem.StateRegistered {
		t.Fatal("did not recover")
	}
	st := d.Applet.Stats()
	if st.Actions[ActionA1] != 0 {
		t.Fatalf("transient failure still triggered A1 (%d times)", st.Actions[ActionA1])
	}
	if st.DiagsReceived == 0 {
		t.Fatal("diagnosis never arrived")
	}
}

// Conflict suppression: delivery reports within 5 s of a plane cause are
// not double-handled.
func TestConflictSuppression(t *testing.T) {
	w := newWorld(11)
	d := w.addDevice(t, "310170000011001", SEEDU)
	attach(t, w, d)

	// Inject a data-plane cause, then immediately an app report.
	w.net.Inj.Add(&core5g.RejectRule{
		UE: d.Cfg.IMSI, Plane: cause.DataPlane,
		Cause: cause.SMMissingOrUnknownDNN, Remaining: 1,
	})
	w.net.SMF.ReleaseAll(d.Cfg.IMSI, true)
	w.k.After(50*time.Millisecond, func() {
		d.Mdm.EstablishSession("internet", nas.SessionIPv4)
	})
	w.k.RunFor(3 * time.Second)
	before := d.Applet.Stats().SuppressedByConflict
	d.CApp.OnDataStall("tcp")
	w.k.RunFor(2 * time.Second)
	if d.Applet.Stats().SuppressedByConflict != before+1 {
		t.Fatalf("report not suppressed: %d → %d", before, d.Applet.Stats().SuppressedByConflict)
	}
}

// The collaboration channel survives multi-fragment messages.
func TestMultiFragmentDiagnosisDelivery(t *testing.T) {
	w := newWorld(12)
	d := w.addDevice(t, "310170000012001", SEEDU)
	attach(t, w, d)

	big := make([]byte, 60) // forces several AUTN fragments
	for i := range big {
		big[i] = byte(i)
	}
	// ConfigTFT is a marker config with no local side effects, so the
	// delivery itself is what is under test.
	w.plugin.SendDiagnosis(d.Cfg.IMSI, DiagMessage{
		Kind: DiagCauseConfig, Plane: cause.DataPlane,
		Code: cause.SMSemanticErrorInTFT, ConfigKind: cause.ConfigTFT, Config: big,
	})
	w.k.RunFor(5 * time.Second)

	if d.Applet.Stats().DiagsReceived != 1 {
		t.Fatalf("diags received = %d", d.Applet.Stats().DiagsReceived)
	}
	if d.Applet.Stats().FragmentsSeen < 5 {
		t.Fatalf("fragments = %d, expected several", d.Applet.Stats().FragmentsSeen)
	}
	if w.plugin.Stats().AcksReceived != w.plugin.Stats().FragmentsSent {
		t.Fatalf("acks %d != fragments %d",
			w.plugin.Stats().AcksReceived, w.plugin.Stats().FragmentsSent)
	}
}

// Online learning end to end: unknown causes get tried, records upload,
// and later devices receive suggestions.
func TestOnlineLearningEndToEnd(t *testing.T) {
	w := newWorld(13)
	w.plugin.Learner.LR = 5 // aggressive gate for the test

	custom := cause.Cause{Plane: cause.DataPlane, Code: 199} // unstandardized
	trainAndMeasure := func(imsi string) (resolved bool, d *Device) {
		d = w.addDevice(t, imsi, SEEDR)
		attach(t, w, d)
		w.net.Inj.Add(&core5g.RejectRule{
			UE: imsi, Plane: cause.DataPlane, Cause: custom.Code, Remaining: 1,
		})
		w.net.SMF.ReleaseAll(imsi, true)
		w.k.After(50*time.Millisecond, func() {
			if d.Mdm.State() == modem.StateRegistered {
				d.Mdm.EstablishSession("internet", nas.SessionIPv4)
			}
		})
		w.k.RunFor(3 * time.Minute)
		return d.Applet.Stats().TrialsResolved > 0 || d.Connected(), d
	}

	okTrain, d1 := trainAndMeasure("310170000013001")
	if !okTrain {
		t.Fatal("first device never recovered")
	}
	// Upload its records to the infrastructure.
	d1.CApp.SetRecordSink(func(blob []byte) {
		if err := w.plugin.ReceiveRecordUpload(blob); err != nil {
			t.Errorf("record upload: %v", err)
		}
	})
	d1.CApp.UploadRecords()
	w.k.RunFor(time.Second)
	if w.plugin.Learner.Causes() == 0 {
		t.Fatal("learner has no evidence after upload")
	}
	best, has := w.plugin.Learner.Best(custom)
	if !has {
		t.Fatal("no best action learned")
	}
	// The cheapest successful action for a d-plane failure is B3.
	if best != ActionB3 {
		t.Fatalf("learned action = %v, want B3", best)
	}

	// A second device hitting the same cause should now receive the
	// suggestion (LR-gated; with LR=5 and evidence≥1, p≈0.99).
	suggestionsBefore := w.plugin.Stats().Suggestions
	okSecond, _ := trainAndMeasure("310170000013002")
	if !okSecond {
		t.Fatal("second device never recovered")
	}
	if w.plugin.Stats().Suggestions <= suggestionsBefore {
		t.Fatal("no suggestion sent to the second device")
	}
}

// Customized cause with operator-configured action.
func TestCustomActionSuggestion(t *testing.T) {
	w := newWorld(14)
	custom := cause.Cause{Plane: cause.ControlPlane, Code: 222}
	w.plugin.AddCustomAction(custom, ActionB2)

	d := w.addDevice(t, "310170000014001", SEEDR)
	attach(t, w, d)
	w.net.Inj.Add(&core5g.RejectRule{
		UE: d.Cfg.IMSI, Plane: cause.ControlPlane, Cause: custom.Code, Remaining: 1,
	})
	d.Mdm.Deregister()
	d.Mdm.Attach()
	w.k.RunFor(30 * time.Second)

	if d.Applet.Stats().Actions[ActionB2] == 0 {
		t.Fatalf("suggested B2 not executed: %v", d.Applet.Stats().Actions)
	}
	if d.Mdm.State() != modem.StateRegistered {
		t.Fatal("did not recover")
	}
}

// Android stall (reconnection-fixable): SEED handles it via the OS report.
func TestStalledSessionRecoveredViaOSReport(t *testing.T) {
	w := newWorld(15)
	d := w.addDevice(t, "310170000015001", SEEDR)
	web := d.AddApp(dataplane.Web)
	attach(t, w, d)
	web.Start()
	w.k.RunFor(20 * time.Second)

	start := w.k.Now()
	w.net.UPF.StallUE(d.Cfg.IMSI)
	recovered := time.Duration(-1)
	if at := awaitSuccess(w, web, start+time.Second, 10*time.Minute); at >= 0 {
		recovered = at - start
	}
	if recovered < 0 || recovered > 15*time.Second {
		t.Fatalf("stalled-session recovery = %v", recovered)
	}
}
