package modem

import (
	"strings"
	"testing"
	"time"

	"github.com/seed5g/seed/internal/cause"
	"github.com/seed5g/seed/internal/nas"
	"github.com/seed5g/seed/internal/radio"
	"github.com/seed5g/seed/internal/sched"
	"github.com/seed5g/seed/internal/sim"
)

// fakeNet is a scripted network: it answers registration and session
// procedures inline (no radio latency) so modem behaviours can be tested
// in isolation.
type fakeNet struct {
	t *testing.T
	k *sched.Kernel
	m *Modem

	rejectRegWith  cause.Code // 0 = accept
	silentReg      bool
	rejectSessWith cause.Code
	silentSess     bool
	regSeen        int
	sessSeen       int
	releaseSeen    int
	gutiSeq        int
	uplink         []nas.Message
	lastSessionHdr nas.SMHeader
	suggestedOnRej string
}

func (f *fakeNet) tx(frame any) bool {
	switch fr := frame.(type) {
	case *radio.NAS:
		msg, err := nas.Unmarshal(fr.Bytes)
		if err != nil {
			f.t.Fatalf("network got undecodable NAS: %v", err)
		}
		f.uplink = append(f.uplink, msg)
		f.handle(msg)
	case radio.RRCConnect, radio.RRCRelease, radio.Packet:
	}
	return true
}

func (f *fakeNet) down(msg nas.Message) {
	data := nas.Marshal(msg)
	f.k.After(time.Millisecond, func() {
		f.m.HandleDownlink(radio.DownlinkNAS{Bytes: data})
	})
}

func (f *fakeNet) handle(msg nas.Message) {
	switch t := msg.(type) {
	case *nas.RegistrationRequest:
		f.regSeen++
		if f.silentReg {
			return
		}
		if f.rejectRegWith != 0 {
			f.down(&nas.RegistrationReject{Cause: f.rejectRegWith})
			return
		}
		f.gutiSeq++
		f.down(&nas.RegistrationAccept{
			GUTI: nas.MobileIdentity{Type: nas.IdentityGUTI, Value: "g" + string(rune('0'+f.gutiSeq))},
		})
	case *nas.PDUSessionEstablishmentRequest:
		f.sessSeen++
		f.lastSessionHdr = t.SMHeader
		if f.silentSess {
			return
		}
		if f.rejectSessWith != 0 {
			f.down(&nas.PDUSessionEstablishmentReject{
				SMHeader: t.SMHeader, Cause: f.rejectSessWith, SuggestedDNN: f.suggestedOnRej,
			})
			return
		}
		f.down(&nas.PDUSessionEstablishmentAccept{
			SMHeader: t.SMHeader, SessionType: t.SessionType,
			Address: nas.Addr{10, 0, 0, byte(f.sessSeen)},
			QoS:     nas.QoS{FiveQI: 9},
			DNN:     t.DNN,
		})
	case *nas.PDUSessionReleaseRequest:
		f.releaseSeen++
		f.down(&nas.PDUSessionReleaseCommand{SMHeader: t.SMHeader, Cause: cause.SMRegularDeactivation})
	case *nas.DeregistrationRequest:
		f.down(&nas.DeregistrationAccept{})
	case *nas.ServiceRequest:
		f.down(&nas.ServiceAccept{})
	case *nas.PDUSessionModificationRequest:
		q := nas.QoS{FiveQI: 5}
		f.down(&nas.PDUSessionModificationCommand{SMHeader: t.SMHeader, QoS: &q})
	}
}

func newModemHarness(t *testing.T) (*sched.Kernel, *Modem, *fakeNet) {
	t.Helper()
	k := sched.New(1)
	card, err := sim.NewCard(sim.DefaultEEPROM, sim.DefaultRAM, [16]byte{1}, sim.Profile{
		IMSI:  "001010000000001",
		PLMNs: []uint32{ServingPLMN},
		DNN:   "internet",
		SST:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeNet{t: t, k: k}
	m := New(k, card, f.tx, new(radio.FramePool), new(radio.NASPool), new(nas.Pool))
	f.m = m
	return k, m, f
}

func TestBootRegistersAndEstablishes(t *testing.T) {
	k, m, f := newModemHarness(t)
	m.PowerOn()
	k.RunFor(10 * time.Second)
	if m.State() != StateRegistered {
		t.Fatalf("state = %v", m.State())
	}
	s, okS := m.FirstActiveSession()
	if !okS || s.DNN != "internet" || s.Address.IsZero() {
		t.Fatalf("session = %+v ok=%v", s, okS)
	}
	// Fresh preferred-PLMN list → fast search: boot in well under 3 s.
	// (boot 0.8 + profile 0.04 + list search 0.3 + procedure RTTs)
	if f.regSeen != 1 {
		t.Fatalf("registrations = %d", f.regSeen)
	}
	if m.Stats().Attaches != 1 {
		t.Fatalf("attaches = %d", m.Stats().Attaches)
	}
}

func TestStalePLMNListForcesFullSearch(t *testing.T) {
	k, m, _ := newModemHarness(t)
	m.PowerOn()
	k.RunFor(time.Second) // boot done, profile being read
	m.OverridePLMNList([]uint32{999999})
	m.PowerOff()
	m.PowerOn()
	k.RunFor(500 * time.Millisecond)
	// Record when registration completes with the full (9 s) search.
	k.RunFor(15 * time.Second)
	if m.State() != StateRegistered {
		t.Fatalf("state = %v", m.State())
	}
}

func TestT3511RetryAfterReject(t *testing.T) {
	k, m, f := newModemHarness(t)
	f.rejectRegWith = cause.MMPLMNNotAllowed // not transient: full T3511
	m.PowerOn()
	k.RunFor(3 * time.Second)
	if f.regSeen != 1 {
		t.Fatalf("early regs = %d", f.regSeen)
	}
	k.RunFor(10 * time.Second) // T3511 = 10 s
	if f.regSeen != 2 {
		t.Fatalf("regs after T3511 = %d", f.regSeen)
	}
	f.rejectRegWith = 0 // heal
	k.RunFor(11 * time.Second)
	if m.State() != StateRegistered {
		t.Fatalf("state = %v", m.State())
	}
}

func TestTransientCauseQuickRetry(t *testing.T) {
	k, m, f := newModemHarness(t)
	f.rejectRegWith = cause.MMCongestion // transient → 500 ms retry
	m.PowerOn()
	k.RunFor(2 * time.Second)
	if f.regSeen < 2 {
		t.Fatalf("regs = %d, transient retry should be fast", f.regSeen)
	}
	f.rejectRegWith = 0
	k.RunFor(2 * time.Second)
	if m.State() != StateRegistered {
		t.Fatal("did not recover")
	}
}

func TestT3502AfterMaxAttempts(t *testing.T) {
	k, m, f := newModemHarness(t)
	f.rejectRegWith = cause.MMPLMNNotAllowed
	m.PowerOn()
	// 1 initial + 5 retries at 10 s each ≈ first 55 s.
	k.RunFor(60 * time.Second)
	n := f.regSeen
	if n != 6 {
		t.Fatalf("regs before T3502 = %d, want 6", n)
	}
	// No more attempts until T3502 (12 min) expires...
	k.RunFor(10 * time.Minute)
	if f.regSeen != n {
		t.Fatalf("regs during T3502 = %d", f.regSeen)
	}
	f.rejectRegWith = 0
	k.RunFor(3 * time.Minute)
	if m.State() != StateRegistered {
		t.Fatal("did not recover after T3502 cycle")
	}
}

func TestT3510TimeoutOnSilentNetwork(t *testing.T) {
	k, m, f := newModemHarness(t)
	f.silentReg = true
	m.PowerOn()
	k.RunFor(5 * time.Second)
	if f.regSeen != 1 {
		t.Fatalf("regs = %d", f.regSeen)
	}
	// T3510 (15 s) + T3511 (10 s) → second attempt by ~27 s after boot.
	k.RunFor(25 * time.Second)
	if f.regSeen < 2 {
		t.Fatalf("no retry after T3510 expiry: regs = %d", f.regSeen)
	}
}

func TestSessionRejectLoopKeepsStaleDNN(t *testing.T) {
	k, m, f := newModemHarness(t)
	f.rejectSessWith = cause.SMMissingOrUnknownDNN
	f.suggestedOnRej = "internet2"
	m.PowerOn()
	k.RunFor(2 * time.Minute)
	if f.sessSeen < 3 {
		t.Fatalf("session attempts = %d, want blind retry loop", f.sessSeen)
	}
	// The legacy modem must have ignored the suggested DNN.
	for _, msg := range f.uplink {
		if req, okR := msg.(*nas.PDUSessionEstablishmentRequest); okR {
			if req.DNN != "internet" && req.DNN != "" {
				t.Fatalf("modem adopted suggested DNN %q — legacy must not", req.DNN)
			}
		}
	}
}

func TestSessionEscalatesToReattach(t *testing.T) {
	k, m, f := newModemHarness(t)
	f.rejectSessWith = cause.SMMissingOrUnknownDNN
	m.PowerOn()
	// 5 session attempts at T3580 (16 s) spacing, then reattach.
	k.RunFor(3 * time.Minute)
	if m.Stats().Attaches < 2 {
		t.Fatalf("attaches = %d, want escalation to reattach", m.Stats().Attaches)
	}
}

func TestRebootClearsGUTIAndReloadsProfile(t *testing.T) {
	k, m, f := newModemHarness(t)
	m.PowerOn()
	k.RunFor(5 * time.Second)
	m.OverrideSessionDNN("stale-apn")
	m.Reboot()
	k.RunFor(10 * time.Second)
	if m.State() != StateRegistered {
		t.Fatal("not registered after reboot")
	}
	if m.Profile().DNN != "internet" {
		t.Fatalf("profile DNN after reboot = %q, want SIM value", m.Profile().DNN)
	}
	if m.Stats().Reboots != 1 {
		t.Fatalf("reboots = %d", m.Stats().Reboots)
	}
	// Fresh registration after reboot used SUCI (GUTI cleared):
	last := f.uplink[len(f.uplink)-2] // [..., RegistrationRequest, PDU req]
	foundSUCI := false
	for _, msg := range f.uplink {
		if rr, okR := msg.(*nas.RegistrationRequest); okR && rr.Identity.Type == nas.IdentitySUCI {
			foundSUCI = true
		}
	}
	_ = last
	if !foundSUCI {
		t.Fatal("no SUCI registration observed after reboot")
	}
}

func TestSimulateMobilityReattachesWithGUTI(t *testing.T) {
	k, m, f := newModemHarness(t)
	m.PowerOn()
	k.RunFor(5 * time.Second)
	f.uplink = nil
	m.SimulateMobility()
	k.RunFor(5 * time.Second)
	var reg *nas.RegistrationRequest
	for _, msg := range f.uplink {
		if rr, okR := msg.(*nas.RegistrationRequest); okR {
			reg = rr
		}
	}
	if reg == nil || reg.Identity.Type != nas.IdentityGUTI {
		t.Fatalf("mobility registration = %+v, want GUTI identity", reg)
	}
	if m.State() != StateRegistered {
		t.Fatal("mobility re-registration failed")
	}
}

func TestNetworkReleaseTriggersReestablish(t *testing.T) {
	k, m, f := newModemHarness(t)
	m.PowerOn()
	k.RunFor(5 * time.Second)
	s, _ := m.FirstActiveSession()
	sessBefore := f.sessSeen
	// Network-initiated release of the default session.
	f.down(&nas.PDUSessionReleaseCommand{
		SMHeader: nas.SMHeader{PDUSessionID: s.ID}, Cause: cause.SMRegularDeactivation,
	})
	k.RunFor(3 * time.Second)
	if f.sessSeen != sessBefore+1 {
		t.Fatalf("no re-establishment after network release: %d → %d", sessBefore, f.sessSeen)
	}
	if _, okS := m.FirstActiveSession(); !okS {
		t.Fatal("session not back up")
	}
}

func TestModificationCommandApplied(t *testing.T) {
	k, m, _ := newModemHarness(t)
	m.PowerOn()
	k.RunFor(5 * time.Second)
	s, _ := m.FirstActiveSession()
	if !m.RequestModification(s.ID) {
		t.Fatal("RequestModification refused")
	}
	k.RunFor(time.Second)
	s2, _ := m.Session(s.ID)
	if s2.QoS.FiveQI != 5 {
		t.Fatalf("QoS after modification = %+v", s2.QoS)
	}
}

func TestSendRawSessionRequestHasNoRetryStateAndNeedsRegistration(t *testing.T) {
	k, m, f := newModemHarness(t)
	if m.SendRawSessionRequest("DIAGdeadbeef") {
		t.Fatal("raw request accepted while off")
	}
	f.rejectSessWith = 0
	m.PowerOn()
	k.RunFor(5 * time.Second)
	sessBefore := len(m.Sessions())
	f.rejectSessWith = cause.SMRequestRejectedUnspec // the DIAG ACK
	if !m.SendRawSessionRequest("DIAGdeadbeef") {
		t.Fatal("raw request refused while registered")
	}
	k.RunFor(30 * time.Second)
	if len(m.Sessions()) != sessBefore {
		t.Fatal("raw request created tracked session state")
	}
	// No retry loop: exactly one DIAG request went out.
	diags := 0
	for _, msg := range f.uplink {
		if req, okR := msg.(*nas.PDUSessionEstablishmentRequest); okR && strings.HasPrefix(req.DNN, "DIAG") {
			diags++
		}
	}
	if diags != 1 {
		t.Fatalf("DIAG requests = %d, want exactly 1", diags)
	}
}

func TestEstablishSessionRequiresRegistration(t *testing.T) {
	k, m, _ := newModemHarness(t)
	if id := m.EstablishSession("internet", nas.SessionIPv4); id != 0 {
		t.Fatalf("establish while off returned %d", id)
	}
	m.PowerOn()
	k.RunFor(5 * time.Second)
	if id := m.EstablishSession("ims", nas.SessionIPv4); id == 0 {
		t.Fatal("establish while registered refused")
	}
}

func TestATCommandSurface(t *testing.T) {
	k, m, _ := newModemHarness(t)
	m.PowerOn()
	k.RunFor(5 * time.Second)

	cases := []struct {
		cmd  string
		want string
	}{
		{"AT", "OK"},
		{"AT+CGATT?", "+CGATT: 1"},
		{`AT+CGDCONT=1,"IP","newdnn"`, "OK"},
		{"AT+COPS=0", "OK"},
	}
	for _, c := range cases {
		out, err := m.Execute(c.cmd)
		if err != nil || out != c.want {
			t.Fatalf("%q → %q, %v", c.cmd, out, err)
		}
	}
	if m.Profile().DNN != "newdnn" {
		t.Fatalf("CGDCONT did not update cache: %q", m.Profile().DNN)
	}
	// Error cases.
	for _, bad := range []string{
		"AT+CFUN=9", "AT+CGDCONT=x", `AT+CGDCONT=1,"IP",""`,
		"AT+CGACT=5,1", "AT+CGACT=1", "AT+UNKNOWN",
	} {
		if _, err := m.Execute(bad); err == nil {
			t.Fatalf("%q accepted", bad)
		}
	}
	if m.Stats().ATCommands == 0 {
		t.Fatal("AT commands not counted")
	}
}

func TestProactiveRunATAndDisplayText(t *testing.T) {
	k, m, _ := newModemHarness(t)
	m.PowerOn()
	k.RunFor(5 * time.Second)

	m.card.QueueProactive(sim.ProactiveCommand{Type: sim.ProactiveRunATCommand, Text: `AT+CGDCONT=1,"IP","viaproactive"`})
	m.card.QueueProactive(sim.ProactiveCommand{Type: sim.ProactiveDisplayText, Text: "contact operator"})
	k.RunFor(time.Second)
	if m.Profile().DNN != "viaproactive" {
		t.Fatalf("RUN AT COMMAND not executed: %q", m.Profile().DNN)
	}
	if n := m.card.PendingProactive(); n != 0 {
		t.Fatalf("%d proactive commands left on the card, want both fetched", n)
	}
}

func TestRefreshFileChangeUpdatesWithoutDetach(t *testing.T) {
	k, m, f := newModemHarness(t)
	m.PowerOn()
	k.RunFor(5 * time.Second)
	attaches := m.Stats().Attaches
	_ = m.card.FS().Write(sim.EFDNN, []byte("refreshed"))
	m.card.QueueProactive(sim.ProactiveCommand{
		Type: sim.ProactiveRefresh, Mode: sim.RefreshFileChange, Files: []sim.FileID{sim.EFDNN},
	})
	k.RunFor(time.Second)
	if m.Profile().DNN != "refreshed" {
		t.Fatalf("DNN after file-change refresh = %q", m.Profile().DNN)
	}
	if m.Stats().Attaches != attaches {
		t.Fatal("file-change refresh triggered a reattach")
	}
	_ = f
}

func TestRefreshInitReattachesAfterSIMReinit(t *testing.T) {
	k, m, _ := newModemHarness(t)
	m.PowerOn()
	k.RunFor(5 * time.Second)
	attaches := m.Stats().Attaches
	start := k.Now()
	m.card.QueueProactive(sim.ProactiveCommand{Type: sim.ProactiveRefresh, Mode: sim.RefreshInit})
	k.RunFor(10 * time.Second)
	if m.Stats().Attaches != attaches+1 {
		t.Fatalf("attaches = %d, want one reattach", m.Stats().Attaches)
	}
	if m.State() != StateRegistered {
		t.Fatal("not registered after refresh")
	}
	_ = start
}

func TestPacketPathsRequireActiveSession(t *testing.T) {
	k, m, _ := newModemHarness(t)
	pkt := radio.Packet{SessionID: 1, Proto: nas.ProtoTCP, Length: 100}
	if m.SendPacket(&pkt) {
		t.Fatal("packet sent with no session")
	}
	m.PowerOn()
	k.RunFor(5 * time.Second)
	s, _ := m.FirstActiveSession()
	pkt.SessionID = s.ID
	if !m.SendPacket(&pkt) {
		t.Fatal("packet refused on active session")
	}
	if m.Stats().PacketsUp != 1 {
		t.Fatalf("PacketsUp = %d", m.Stats().PacketsUp)
	}
	var got []radio.Packet
	m.SetHooks(Hooks{OnDownlinkData: func(p *radio.Packet) { got = append(got, *p) }})
	m.HandleDownlink(radio.Packet{SessionID: s.ID, Length: 50})
	if len(got) != 1 || m.Stats().PacketsDown != 1 {
		t.Fatalf("downlink delivery: %d pkts, stats %d", len(got), m.Stats().PacketsDown)
	}
}

func TestStateStrings(t *testing.T) {
	for s, want := range map[State]string{
		StateOff: "OFF", StateBooting: "BOOTING", StateSearching: "SEARCHING",
		StateDeregistered: "DEREGISTERED", StateRegistering: "REGISTERING",
		StateRegistered: "REGISTERED", State(99): "State(99)",
	} {
		if s.String() != want {
			t.Fatalf("%d.String() = %q", s, s.String())
		}
	}
}
