package core5g

import (
	"testing"
	"time"

	"github.com/seed5g/seed/internal/cause"
	"github.com/seed5g/seed/internal/modem"
	"github.com/seed5g/seed/internal/nas"
	"github.com/seed5g/seed/internal/netemu"
	"github.com/seed5g/seed/internal/radio"
	"github.com/seed5g/seed/internal/sched"
	"github.com/seed5g/seed/internal/sim"
)

// ue is a device harness: SIM + modem wired to the network over an
// emulated radio link.
type ue struct {
	card  *sim.Card
	modem *modem.Modem
	radio *netemu.Duplex

	sessionUps  int
	lastSession *modem.Session
	downPkts    []radio.Packet
}

var carrierKey = [16]byte{9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9}

func subProfile(imsi string) (sim.Profile, *Subscriber) {
	var k, op [16]byte
	copy(k[:], imsi+"-key-padding-xx")
	copy(op[:], "operator-op-code")
	prof := sim.Profile{
		IMSI:  imsi,
		K:     k,
		OP:    op,
		PLMNs: []uint32{modem.ServingPLMN},
		DNN:   "internet",
		DNS:   [][4]byte{LDNSAddr},
		SST:   1,
	}
	sub := &Subscriber{
		IMSI:        imsi,
		K:           k,
		OP:          op,
		Authorized:  true,
		PlanActive:  true,
		DefaultDNN:  "internet",
		AllowedDNNs: []string{"internet", "ims"},
		Sessions: map[string]SessionConfig{
			"internet": {
				DNS: []nas.Addr{LDNSAddr},
				QoS: nas.QoS{FiveQI: 9, UplinkKbps: 100000, DownKbps: 400000},
			},
			"ims": {DNS: []nas.Addr{LDNSAddr}, QoS: nas.QoS{FiveQI: 5}},
		},
	}
	return prof, sub
}

func newUE(t *testing.T, k *sched.Kernel, n *Network, imsi string) *ue {
	t.Helper()
	prof, sub := subProfile(imsi)
	if err := n.UDM.AddSubscriber(sub); err != nil {
		t.Fatal(err)
	}
	card, err := sim.NewCard(sim.DefaultEEPROM, sim.DefaultRAM, carrierKey, prof)
	if err != nil {
		t.Fatal(err)
	}
	u := &ue{card: card}
	u.radio = netemu.NewDuplex(k, "radio-"+imsi, 8*time.Millisecond, nil, nil)
	u.modem = modem.New(k, card, u.radio.A2B.Send, n.Frames, n.NASFrames, n.Messages)
	u.radio.SetHandlers(n.GNB.HandleUplink, u.modem.HandleDownlink)
	n.GNB.AttachUE(imsi, u.radio.B2A.Send)
	u.modem.SetHooks(modem.Hooks{
		OnSessionUp: func(s *modem.Session) {
			u.sessionUps++
			u.lastSession = s
		},
		OnDownlinkData: func(p *radio.Packet) { u.downPkts = append(u.downPkts, *p) },
	})
	return u
}

func TestFullAttachAndSession(t *testing.T) {
	k := sched.New(1)
	n := NewNetwork(k)
	u := newUE(t, k, n, "310170000000001")

	u.modem.PowerOn()
	k.RunFor(30 * time.Second)

	if u.modem.State() != modem.StateRegistered {
		t.Fatalf("modem state = %v, want REGISTERED", u.modem.State())
	}
	if !n.AMF.Registered(u.modem.IMSI()) {
		t.Fatal("AMF does not consider the UE registered")
	}
	if u.sessionUps != 1 || u.lastSession == nil {
		t.Fatalf("sessionUps = %d", u.sessionUps)
	}
	if u.lastSession.Address.IsZero() {
		t.Fatal("session has no address")
	}
	if len(u.lastSession.DNS) == 0 || u.lastSession.DNS[0] != LDNSAddr {
		t.Fatalf("session DNS = %v", u.lastSession.DNS)
	}
	if n.GNB.BearerCount(u.modem.IMSI()) != 1 {
		t.Fatalf("bearers = %d", n.GNB.BearerCount(u.modem.IMSI()))
	}
	// Attach in well under 30 s on a healthy network.
	if k.Now() > 30*time.Second {
		t.Fatalf("attach took %v", k.Now())
	}
}

func TestUserPlaneEchoThroughUPF(t *testing.T) {
	k := sched.New(2)
	n := NewNetwork(k)
	u := newUE(t, k, n, "310170000000002")

	// Emulated internet: echo every packet back, in the frame it came in.
	n.UPF.SetRemote(func(p *radio.Packet) {
		k.After(10*time.Millisecond, func() {
			*p = radio.Packet{
				Proto: p.Proto, Src: p.Dst, Dst: p.Src,
				SrcPort: p.DstPort, DstPort: p.SrcPort,
				Flow: p.Flow, Length: p.Length,
			}
			n.UPF.Inject(p)
		})
	})

	u.modem.PowerOn()
	k.RunFor(30 * time.Second)
	s := u.lastSession
	if s == nil {
		t.Fatal("no session")
	}
	sent := u.modem.SendPacket(&radio.Packet{
		SessionID: s.ID, Proto: nas.ProtoTCP,
		Dst: [4]byte{203, 0, 113, 10}, SrcPort: 40000, DstPort: 443,
		Flow: "web", Length: 1200,
	})
	if !sent {
		t.Fatal("uplink send failed")
	}
	k.RunFor(time.Second)
	if len(u.downPkts) != 1 || u.downPkts[0].Flow != "web" {
		t.Fatalf("downlink packets = %+v", u.downPkts)
	}
}

func TestLDNSServiceAndOutage(t *testing.T) {
	k := sched.New(3)
	n := NewNetwork(k)
	u := newUE(t, k, n, "310170000000003")
	u.modem.PowerOn()
	k.RunFor(30 * time.Second)
	s := u.lastSession

	query := radio.Packet{
		SessionID: s.ID, Proto: nas.ProtoUDP,
		Dst: [4]byte(LDNSAddr), SrcPort: 50000, DstPort: 53,
		Flow: "dns", Length: 64, Meta: "example.com",
	}
	u.modem.SendPacket(&query)
	k.RunFor(time.Second)
	if len(u.downPkts) != 1 || u.downPkts[0].Meta != "dns-answer:example.com" {
		t.Fatalf("DNS answer = %+v", u.downPkts)
	}

	n.UPF.SetLDNSDown(true)
	u.modem.SendPacket(&query)
	k.RunFor(2 * time.Second)
	if len(u.downPkts) != 1 {
		t.Fatal("DNS answered during outage")
	}
	if n.UPF.Stats().DNSQueries != 2 || n.UPF.Stats().DNSAnswered != 1 {
		t.Fatalf("UPF DNS stats = %+v", n.UPF.Stats())
	}
}

func TestRegistrationRejectInjection(t *testing.T) {
	k := sched.New(4)
	n := NewNetwork(k)
	u := newUE(t, k, n, "310170000000004")

	var rejects []uint8
	u.modem.SetHooks(modem.Hooks{
		OnReject: func(epd byte, code uint8) {
			if epd == nas.EPD5GMM {
				rejects = append(rejects, code)
			}
		},
	})
	// Reject the first two registrations with PLMN-not-allowed, then heal.
	n.Inj.Add(&RejectRule{
		UE: "310170000000004", Plane: cause.ControlPlane,
		Cause: cause.MMPLMNNotAllowed, Remaining: 2,
	})
	u.modem.PowerOn()
	k.RunFor(2 * time.Minute)

	if len(rejects) != 2 || rejects[0] != uint8(cause.MMPLMNNotAllowed) {
		t.Fatalf("rejects = %v", rejects)
	}
	if u.modem.State() != modem.StateRegistered {
		t.Fatalf("modem did not recover after heal: %v", u.modem.State())
	}
	// Legacy retry spacing: recovery needs at least one T3511 (10 s) wait.
	if k.Now() < 10*time.Second {
		t.Fatalf("recovered suspiciously fast: %v", k.Now())
	}
}

func TestIdentityDesyncProducesCause9Loop(t *testing.T) {
	k := sched.New(5)
	n := NewNetwork(k)
	u := newUE(t, k, n, "310170000000005")
	var rejects []uint8
	u.modem.SetHooks(modem.Hooks{
		OnReject: func(epd byte, code uint8) {
			if epd == nas.EPD5GMM {
				rejects = append(rejects, code)
			}
		},
	})
	u.modem.PowerOn()
	k.RunFor(time.Minute)
	if u.modem.State() != modem.StateRegistered {
		t.Fatal("setup attach failed")
	}

	// The network loses the UE context (tracking-area sync failure);
	// the UE then deregisters locally and reattaches with its stale GUTI.
	n.AMF.DesyncIdentity("310170000000005")
	u.modem.Deregister()
	u.modem.Attach()
	k.RunFor(time.Minute)

	// The legacy modem keeps retrying with the outdated GUTI → repeated
	// cause-9 rejects (the §3.2 repeated-failure loop).
	if len(rejects) < 2 {
		t.Fatalf("rejects = %v, want repeated cause-9", rejects)
	}
	for _, c := range rejects {
		if c != uint8(cause.MMUEIdentityCannotBeDerived) {
			t.Fatalf("unexpected cause %d", c)
		}
	}
	if u.modem.State() == modem.StateRegistered {
		t.Fatal("modem recovered without clearing the stale GUTI — model broken")
	}
}

func TestStaleDNNRejectLoop(t *testing.T) {
	k := sched.New(6)
	n := NewNetwork(k)
	u := newUE(t, k, n, "310170000000006")
	var smRejects []uint8
	u.modem.SetHooks(modem.Hooks{
		OnReject: func(epd byte, code uint8) {
			if epd == nas.EPD5GSM {
				smRejects = append(smRejects, code)
			}
		},
	})
	u.modem.PowerOn()
	k.RunFor(20 * time.Second)
	if u.modem.State() != modem.StateRegistered {
		t.Fatal("attach failed")
	}

	// Stale modem cache: the modem now asks for a DNN the subscription
	// does not know. Every retry fails with cause 27 and a suggested DNN
	// the legacy modem ignores.
	u.modem.OverrideSessionDNN("old-apn")
	u.modem.EstablishSession("old-apn", nas.SessionIPv4)
	k.RunFor(3 * time.Minute)

	if len(smRejects) < 3 {
		t.Fatalf("session rejects = %v, want a repeated-failure loop", smRejects)
	}
	for _, c := range smRejects {
		if c != uint8(cause.SMMissingOrUnknownDNN) {
			t.Fatalf("unexpected 5GSM cause %d", c)
		}
	}
}

func TestLastBearerReleaseForcesReattach(t *testing.T) {
	k := sched.New(7)
	n := NewNetwork(k)
	u := newUE(t, k, n, "310170000000007")
	u.modem.PowerOn()
	k.RunFor(20 * time.Second)
	s := u.lastSession
	if s == nil {
		t.Fatal("no session")
	}

	// Releasing the only session drops the last bearer; the gNB releases
	// RRC and the AMF drops the UE context (Fig 6's motivating problem).
	u.modem.ReleaseSession(s.ID)
	k.RunFor(5 * time.Second)
	if n.GNB.BearerCount(u.modem.IMSI()) != 0 {
		t.Fatal("bearer not released")
	}
	if n.AMF.Registered(u.modem.IMSI()) {
		t.Fatal("AMF kept context after last bearer release")
	}
}

func TestSilentRuleCausesTimeoutRetry(t *testing.T) {
	k := sched.New(8)
	n := NewNetwork(k)
	u := newUE(t, k, n, "310170000000008")
	drops := 0
	n.AMF.OnTimeoutDrop = func(string) { drops++ }
	n.Inj.Add(&RejectRule{
		UE: "310170000000008", Plane: cause.ControlPlane,
		Remaining: 1, Silent: true,
	})
	u.modem.PowerOn()
	k.RunFor(2 * time.Minute)
	if drops != 1 {
		t.Fatalf("drops = %d", drops)
	}
	// T3510 (15 s) expiry then T3511 (10 s) retry must have recovered it.
	if u.modem.State() != modem.StateRegistered {
		t.Fatalf("state = %v", u.modem.State())
	}
}

func TestExpiredPlanIsUserActionFailure(t *testing.T) {
	k := sched.New(9)
	n := NewNetwork(k)
	u := newUE(t, k, n, "310170000000009")
	sub, _ := n.UDM.Subscriber("310170000000009")
	sub.PlanActive = false
	var smRejects []uint8
	u.modem.SetHooks(modem.Hooks{
		OnReject: func(epd byte, code uint8) {
			if epd == nas.EPD5GSM {
				smRejects = append(smRejects, code)
			}
		},
	})
	u.modem.PowerOn()
	k.RunFor(time.Minute)
	if len(smRejects) == 0 || smRejects[0] != uint8(cause.SMUserAuthFailed) {
		t.Fatalf("rejects = %v, want user-auth-failed", smRejects)
	}
}

func TestUnauthorizedSubscriberRejected(t *testing.T) {
	k := sched.New(10)
	n := NewNetwork(k)
	u := newUE(t, k, n, "310170000000010")
	sub, _ := n.UDM.Subscriber("310170000000010")
	sub.Authorized = false
	var rejects []uint8
	u.modem.SetHooks(modem.Hooks{
		OnReject: func(epd byte, code uint8) {
			if epd == nas.EPD5GMM {
				rejects = append(rejects, code)
			}
		},
	})
	u.modem.PowerOn()
	k.RunFor(time.Minute)
	if len(rejects) == 0 || rejects[0] != uint8(cause.MMIllegalUE) {
		t.Fatalf("rejects = %v", rejects)
	}
	if u.modem.State() == modem.StateRegistered {
		t.Fatal("unauthorized UE registered")
	}
}

func TestInjectorRuleLifecycle(t *testing.T) {
	k := sched.New(11)
	inj := NewInjector(k.Now)
	r1 := inj.Add(&RejectRule{UE: "a", Plane: cause.ControlPlane, Cause: 11, Remaining: 1})
	inj.Add(&RejectRule{UE: "b", Plane: cause.DataPlane, Cause: 27, Remaining: -1, Until: time.Minute})

	if got := inj.Match("x", cause.ControlPlane); got != nil {
		t.Fatal("matched wrong UE")
	}
	if got := inj.Match("a", cause.DataPlane); got != nil {
		t.Fatal("matched wrong plane")
	}
	if got := inj.Match("a", cause.ControlPlane); got != r1 {
		t.Fatal("rule not matched")
	}
	if got := inj.Match("a", cause.ControlPlane); got != nil {
		t.Fatal("exhausted rule matched again")
	}
	// Unlimited rule keeps matching until expiry.
	if inj.Match("b", cause.DataPlane) == nil || inj.Match("b", cause.DataPlane) == nil {
		t.Fatal("unlimited rule stopped matching")
	}
	k.RunUntil(2 * time.Minute)
	if inj.Match("b", cause.DataPlane) != nil {
		t.Fatal("expired rule matched")
	}
	if inj.Active() != 0 {
		t.Fatalf("active rules = %d", inj.Active())
	}
}

func TestATCommandsDriveModem(t *testing.T) {
	k := sched.New(12)
	n := NewNetwork(k)
	u := newUE(t, k, n, "310170000000012")
	u.modem.PowerOn()
	k.RunFor(20 * time.Second)

	if out, err := u.modem.Execute("AT+CGATT?"); err != nil || out != "+CGATT: 1" {
		t.Fatalf("CGATT? = %q err=%v", out, err)
	}
	// Repair the cached DNN and cycle the session (the SEED-R recipe).
	if _, err := u.modem.Execute(`AT+CGDCONT=1,"IP","ims"`); err != nil {
		t.Fatal(err)
	}
	s := u.lastSession
	if _, err := u.modem.Execute("AT+CGACT=1,0"); err != nil {
		t.Fatal(err)
	}
	k.RunFor(5 * time.Second)
	if _, err := u.modem.Execute("AT+CGACT=0," + itoa(s.ID)); err != nil {
		t.Fatal(err)
	}
	k.RunFor(5 * time.Second)
	act, okA := u.modem.FirstActiveSession()
	if !okA || act.DNN != "ims" {
		t.Fatalf("active session after CGACT cycle: %+v ok=%v", act, okA)
	}
	// Reboot via AT.
	if _, err := u.modem.Execute("AT+CFUN=1,1"); err != nil {
		t.Fatal(err)
	}
	k.RunFor(time.Minute)
	if u.modem.State() != modem.StateRegistered {
		t.Fatalf("state after CFUN reboot = %v", u.modem.State())
	}
	if u.modem.Stats().Reboots != 1 {
		t.Fatalf("reboots = %d", u.modem.Stats().Reboots)
	}
	// Unknown command errors.
	if _, err := u.modem.Execute("AT+NOPE"); err == nil {
		t.Fatal("unknown AT command accepted")
	}
}

func itoa(v uint8) string {
	return string([]byte{'0' + v/100%10, '0' + v/10%10, '0' + v%10})
}

func TestNASSecurityEstablishedAndUsed(t *testing.T) {
	k := sched.New(13)
	n := NewNetwork(k)
	u := newUE(t, k, n, "310170000000013")
	u.modem.PowerOn()
	k.RunFor(20 * time.Second)
	if u.modem.State() != modem.StateRegistered {
		t.Fatal("attach failed")
	}
	active, protected, verified := n.AMF.SecurityActive(u.modem.IMSI())
	if !active {
		t.Fatal("no NAS security context after registration")
	}
	// Registration Accept and the PDU session exchange ride the context.
	if protected < 2 || verified < 2 {
		t.Fatalf("security context barely used: out=%d in=%d", protected, verified)
	}
	// Post-registration signaling keeps flowing under protection.
	u.modem.RequestModification(1)
	k.RunFor(time.Second)
	_, p2, v2 := n.AMF.SecurityActive(u.modem.IMSI())
	if p2 <= protected || v2 <= verified {
		t.Fatalf("modification exchange not protected: out %d→%d in %d→%d",
			protected, p2, verified, v2)
	}
}

func TestSecuritySurvivesMobilityRekeying(t *testing.T) {
	k := sched.New(14)
	n := NewNetwork(k)
	u := newUE(t, k, n, "310170000000014")
	u.modem.PowerOn()
	k.RunFor(20 * time.Second)
	// Several mobility cycles, each re-registering and re-keying.
	for i := 0; i < 3; i++ {
		u.modem.SimulateMobility()
		k.RunFor(10 * time.Second)
		if u.modem.State() != modem.StateRegistered {
			t.Fatalf("cycle %d: not registered", i)
		}
		if active, _, _ := n.AMF.SecurityActive(u.modem.IMSI()); !active {
			t.Fatalf("cycle %d: security context lost", i)
		}
	}
	if u.sessionUps < 3 {
		t.Fatalf("sessions did not recover across cycles: %d", u.sessionUps)
	}
}
