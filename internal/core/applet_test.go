package core

// Unit tests for the applet's decision module: the Table 3 mapping from
// diagnosis class to reset action, exercised against a recording stub so
// each decision is observable in isolation.

import (
	"testing"
	"time"

	"github.com/seed5g/seed/internal/cause"
	"github.com/seed5g/seed/internal/crypto5g"
	"github.com/seed5g/seed/internal/modem"
	"github.com/seed5g/seed/internal/report"
	"github.com/seed5g/seed/internal/sched"
	"github.com/seed5g/seed/internal/sim"
)

// recorder implements DeviceActions, logging every call.
type recorder struct {
	calls   []string
	atCmds  []string
	configs []cause.ConfigKind
	uplinks int
}

func (r *recorder) RunAT(cmd string) error {
	r.calls = append(r.calls, "AT")
	r.atCmds = append(r.atCmds, cmd)
	return nil
}
func (r *recorder) UpdateDataConfig(kind cause.ConfigKind, _ []byte) {
	r.calls = append(r.calls, "UpdateDataConfig")
	r.configs = append(r.configs, kind)
}
func (r *recorder) ResetDataConnection()     { r.calls = append(r.calls, "ResetDataConnection") }
func (r *recorder) FastDataReset()           { r.calls = append(r.calls, "FastDataReset") }
func (r *recorder) RequestDataModification() { r.calls = append(r.calls, "RequestDataModification") }
func (r *recorder) SendUplinkReport([]string) {
	r.calls = append(r.calls, "SendUplinkReport")
	r.uplinks++
}

type appletHarness struct {
	k      *sched.Kernel
	card   *sim.Card
	applet *SEEDApplet
	rec    *recorder
	env    *crypto5g.Envelope // the "infrastructure" side
}

func newAppletHarness(t *testing.T, cfg AppletConfig) *appletHarness {
	t.Helper()
	var carrier, key [16]byte
	copy(carrier[:], "carrier-key-0000")
	copy(key[:], "in-sim-key-00000")
	card, err := sim.NewCard(sim.DefaultEEPROM, sim.DefaultRAM, carrier, sim.Profile{
		IMSI: "1", PLMNs: []uint32{modem.ServingPLMN}, DNN: "internet", SST: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	k := sched.New(1)
	rec := &recorder{}
	applet := NewApplet(k, card, "1", key, cfg, rec)
	if err := card.InstallApplet(applet, sim.InstallMAC(carrier, AppletAID)); err != nil {
		t.Fatal(err)
	}
	return &appletHarness{
		k: k, card: card, applet: applet, rec: rec,
		env: NewChannelEnvelope(key),
	}
}

// deliver sends a sealed diagnosis through the real AUTN fragment path.
func (h *appletHarness) deliver(t *testing.T, m DiagMessage) {
	t.Helper()
	sealed, err := h.env.Seal(crypto5g.Downlink, m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range core_FragmentAUTN(sealed) {
		h.applet.HandleAuthDiagnosis(frag)
	}
}

// core_FragmentAUTN is a local alias to keep the call sites readable.
var core_FragmentAUTN = FragmentAUTN

func (h *appletHarness) proactiveTypes() []sim.ProactiveType {
	var out []sim.ProactiveType
	for {
		cmd, okC := h.card.FetchProactive()
		if !okC {
			return out
		}
		out = append(out, cmd.Type)
	}
}

func (h *appletHarness) proactiveCmds() []sim.ProactiveCommand {
	var out []sim.ProactiveCommand
	for {
		cmd, okC := h.card.FetchProactive()
		if !okC {
			return out
		}
		out = append(out, cmd)
	}
}

func TestDecisionCPlaneNoConfigModeU(t *testing.T) {
	h := newAppletHarness(t, DefaultAppletConfig())
	h.deliver(t, DiagMessage{Kind: DiagCause, Plane: cause.ControlPlane, Code: cause.MMPLMNNotAllowed})
	h.k.RunFor(3 * time.Second) // past the 2 s wait
	cmds := h.proactiveCmds()
	if len(cmds) != 1 || cmds[0].Type != sim.ProactiveRefresh || cmds[0].Mode != sim.RefreshInit {
		t.Fatalf("Table 3 row 1 (U) = %v, want REFRESH(init) = A1", cmds)
	}
	if len(h.rec.calls) != 0 {
		t.Fatalf("unexpected device calls: %v", h.rec.calls)
	}
}

func TestDecisionCPlaneNoConfigModeR(t *testing.T) {
	h := newAppletHarness(t, DefaultAppletConfig())
	h.applet.HandleEnvelope([]byte{0x01}) // enable root
	h.deliver(t, DiagMessage{Kind: DiagCause, Plane: cause.ControlPlane, Code: cause.MMPLMNNotAllowed})
	h.k.RunFor(3 * time.Second)
	if len(h.rec.atCmds) != 1 || h.rec.atCmds[0] != "AT+CFUN=1,1" {
		t.Fatalf("Table 3 row 1 (R) = %v, want AT+CFUN=1,1 = B1", h.rec.atCmds)
	}
}

func TestDecisionCPlaneWithConfig(t *testing.T) {
	h := newAppletHarness(t, DefaultAppletConfig())
	h.deliver(t, DiagMessage{
		Kind: DiagCauseConfig, Plane: cause.ControlPlane,
		Code: cause.MMNoNetworkSlicesAvailable, ConfigKind: cause.ConfigSNSSAI,
		Config: []byte{2, 0, 0, 0},
	})
	h.k.RunFor(3 * time.Second)
	// A2 & A1: the config lands in the EF, then file-change + init refresh.
	sn, err := h.card.FS().Read(sim.EFSNSSAI)
	if err != nil || sn[0] != 2 {
		t.Fatalf("EF_SNSSAI = %v, %v", sn, err)
	}
	cmds := h.proactiveCmds()
	if len(cmds) != 2 || cmds[0].Mode != sim.RefreshFileChange || cmds[1].Mode != sim.RefreshInit {
		t.Fatalf("Table 3 row 2 (U) = %v, want file-change then init", cmds)
	}
}

func TestDecisionCPlaneWithConfigModeR(t *testing.T) {
	h := newAppletHarness(t, DefaultAppletConfig())
	h.applet.HandleEnvelope([]byte{0x01})
	h.deliver(t, DiagMessage{
		Kind: DiagCauseConfig, Plane: cause.ControlPlane,
		Code: cause.MMN1ModeNotAllowed, ConfigKind: cause.ConfigSupportedRAT, Config: []byte{2},
	})
	h.k.RunFor(3 * time.Second)
	// B2 with update: file-change refresh + CGATT cycle.
	cmds := h.proactiveCmds()
	if len(cmds) != 1 || cmds[0].Mode != sim.RefreshFileChange {
		t.Fatalf("expected config refresh before B2, got %v", cmds)
	}
	if len(h.rec.atCmds) != 2 || h.rec.atCmds[0] != "AT+CGATT=0" || h.rec.atCmds[1] != "AT+CGATT=1" {
		t.Fatalf("Table 3 row 2 (R) = %v, want CGATT cycle = B2", h.rec.atCmds)
	}
}

func TestDecisionDPlaneNoConfig(t *testing.T) {
	hU := newAppletHarness(t, DefaultAppletConfig())
	hU.deliver(t, DiagMessage{Kind: DiagCause, Plane: cause.DataPlane, Code: cause.SMNetworkFailure})
	hU.k.RunFor(time.Second)
	if types := hU.proactiveTypes(); len(types) != 1 || types[0] != sim.ProactiveRefresh {
		t.Fatalf("Table 3 row 3 (U) = %v, want A1", types)
	}

	hR := newAppletHarness(t, DefaultAppletConfig())
	hR.applet.HandleEnvelope([]byte{0x01})
	hR.deliver(t, DiagMessage{Kind: DiagCause, Plane: cause.DataPlane, Code: cause.SMNetworkFailure})
	hR.k.RunFor(time.Second)
	if len(hR.rec.calls) != 1 || hR.rec.calls[0] != "FastDataReset" {
		t.Fatalf("Table 3 row 3 (R) = %v, want B3", hR.rec.calls)
	}
}

func TestDecisionDPlaneWithConfig(t *testing.T) {
	hU := newAppletHarness(t, DefaultAppletConfig())
	hU.deliver(t, DiagMessage{
		Kind: DiagCauseConfig, Plane: cause.DataPlane,
		Code: cause.SMMissingOrUnknownDNN, ConfigKind: cause.ConfigDNN, Config: []byte("internet2"),
	})
	hU.k.RunFor(time.Second)
	// A3: config written to EF and applied through the carrier app.
	dnn, _ := hU.card.FS().Read(sim.EFDNN)
	if string(dnn) != "internet2" {
		t.Fatalf("EF_DNN = %q", dnn)
	}
	want := []string{"UpdateDataConfig", "ResetDataConnection"}
	if len(hU.rec.calls) != 2 || hU.rec.calls[0] != want[0] || hU.rec.calls[1] != want[1] {
		t.Fatalf("Table 3 row 4 (U) = %v, want %v", hU.rec.calls, want)
	}

	hR := newAppletHarness(t, DefaultAppletConfig())
	hR.applet.HandleEnvelope([]byte{0x01})
	hR.deliver(t, DiagMessage{
		Kind: DiagCauseConfig, Plane: cause.DataPlane,
		Code: cause.SMMissingOrUnknownDNN, ConfigKind: cause.ConfigDNN, Config: []byte("internet2"),
	})
	hR.k.RunFor(time.Second)
	if len(hR.rec.calls) != 2 || hR.rec.calls[1] != "FastDataReset" {
		t.Fatalf("Table 3 row 4 (R) = %v, want config + B3", hR.rec.calls)
	}
}

func TestDecisionDeliveryReport(t *testing.T) {
	hU := newAppletHarness(t, DefaultAppletConfig())
	rep := report.FailureReport{Type: report.FailTCP, Direction: report.DirBoth, Port: 443}
	if _, err := hU.applet.HandleEnvelope(append([]byte{0x02}, rep.Marshal()...)); err != nil {
		t.Fatal(err)
	}
	hU.k.RunFor(time.Second)
	// Report forwarded upstream + A3 local reset.
	if hU.rec.uplinks != 1 {
		t.Fatalf("uplink reports = %d", hU.rec.uplinks)
	}
	hasReset := false
	for _, c := range hU.rec.calls {
		if c == "ResetDataConnection" {
			hasReset = true
		}
	}
	if !hasReset {
		t.Fatalf("Table 3 row 5 (U): calls = %v", hU.rec.calls)
	}
}

func TestDecisionUserActionNotifies(t *testing.T) {
	h := newAppletHarness(t, DefaultAppletConfig())
	h.deliver(t, DiagMessage{Kind: DiagCause, Plane: cause.DataPlane, Code: cause.SMUserAuthFailed})
	h.k.RunFor(3 * time.Second)
	cmds := h.proactiveCmds()
	if len(cmds) != 1 || cmds[0].Type != sim.ProactiveDisplayText {
		t.Fatalf("user-action handling = %v, want DISPLAY TEXT", cmds)
	}
	if len(h.rec.calls) != 0 {
		t.Fatalf("user-action case triggered resets: %v", h.rec.calls)
	}
}

func TestCongestionWaitBlocksActions(t *testing.T) {
	h := newAppletHarness(t, DefaultAppletConfig())
	h.deliver(t, DiagMessage{Kind: DiagCongestion, Plane: cause.ControlPlane, Code: 22, WaitSeconds: 60})
	h.k.RunFor(time.Second)
	// A c-plane cause inside the wait window must not reset.
	h.deliver(t, DiagMessage{Kind: DiagCause, Plane: cause.ControlPlane, Code: cause.MMPLMNNotAllowed})
	h.k.RunFor(10 * time.Second)
	if got := h.proactiveTypes(); len(got) != 0 {
		t.Fatalf("reset during congestion wait: %v", got)
	}
	if h.applet.Stats().CongestionWaits != 1 {
		t.Fatalf("congestion waits = %d", h.applet.Stats().CongestionWaits)
	}
}

func TestRecordsUploadClearsState(t *testing.T) {
	h := newAppletHarness(t, DefaultAppletConfig())
	// Seed a record through the trial bookkeeping path.
	h.applet.startTrial(cause.Cause{Plane: cause.DataPlane, Code: 177})
	h.k.RunFor(100 * time.Millisecond)
	h.applet.notifyRecovered()
	if len(h.applet.Records()) != 1 {
		t.Fatalf("records = %v", h.applet.Records())
	}
	blob, err := h.applet.HandleEnvelope([]byte{0x04})
	if err != nil || len(blob) != 5 {
		t.Fatalf("upload blob = %x, %v", blob, err)
	}
	if len(h.applet.Records()) != 0 {
		t.Fatal("records not cleared after upload")
	}
	recs, err := UnmarshalRecords(blob)
	if err != nil {
		t.Fatal(err)
	}
	// In mode U the trial's first step (B3) degrades to A3.
	if recs[cause.Cause{Plane: cause.DataPlane, Code: 177}][ActionA3] != 1 {
		t.Fatalf("uploaded records = %v", recs)
	}
}

func TestEnvelopeOpcodeErrors(t *testing.T) {
	h := newAppletHarness(t, DefaultAppletConfig())
	if _, err := h.applet.HandleEnvelope(nil); err == nil {
		t.Fatal("empty envelope accepted")
	}
	if _, err := h.applet.HandleEnvelope([]byte{0x99}); err == nil {
		t.Fatal("unknown opcode accepted")
	}
	if _, err := h.applet.HandleEnvelope([]byte{0x02, 1, 2}); err == nil {
		t.Fatal("truncated report accepted")
	}
}

func TestAppletResourceFootprint(t *testing.T) {
	h := newAppletHarness(t, DefaultAppletConfig())
	if h.applet.CodeBytes() > 32*1024 {
		t.Fatalf("applet code = %d bytes; must be SIM-plausible", h.applet.CodeBytes())
	}
	if h.applet.RAMBytes() > 4*1024 {
		t.Fatalf("applet RAM = %d; the card only has 8 KB total", h.applet.RAMBytes())
	}
	if h.card.RAMUsed() != h.applet.RAMBytes() {
		t.Fatal("card RAM accounting mismatch")
	}
}

// Every diagnosis class, driven through the applet without root, with
// root and on the rootless proactive-AT path, executes exactly the reset
// Decide names for it, and Decide names the reset the paper's Table 3
// gives.
func TestDecideIsTable3(t *testing.T) {
	classes := []struct {
		name    string
		class   DiagClass
		u, r    ActionID // the paper's Table 3
		failure func(t *testing.T, h *appletHarness)
	}{
		{"control", ClassControl, ActionA1, ActionB1, func(t *testing.T, h *appletHarness) {
			h.deliver(t, DiagMessage{Kind: DiagCause, Plane: cause.ControlPlane, Code: cause.MMPLMNNotAllowed})
		}},
		{"control with config", ClassControlConfig, ActionA2, ActionB2, func(t *testing.T, h *appletHarness) {
			h.deliver(t, DiagMessage{Kind: DiagCauseConfig, Plane: cause.ControlPlane,
				Code: cause.MMNoNetworkSlicesAvailable, ConfigKind: cause.ConfigSNSSAI, Config: []byte{2, 0, 0, 0}})
		}},
		{"data", ClassData, ActionA1, ActionB3, func(t *testing.T, h *appletHarness) {
			h.deliver(t, DiagMessage{Kind: DiagCause, Plane: cause.DataPlane, Code: cause.SMNetworkFailure})
		}},
		{"data with config", ClassDataConfig, ActionA3, ActionB3, func(t *testing.T, h *appletHarness) {
			h.deliver(t, DiagMessage{Kind: DiagCauseConfig, Plane: cause.DataPlane,
				Code: cause.SMMissingOrUnknownDNN, ConfigKind: cause.ConfigDNN, Config: []byte("internet2")})
		}},
		{"delivery report", ClassDelivery, ActionA3, ActionB3, func(t *testing.T, h *appletHarness) {
			rep := report.FailureReport{Type: report.FailTCP, Direction: report.DirBoth, Port: 443}
			if _, err := h.applet.HandleEnvelope(append([]byte{envAppReport}, rep.Marshal()...)); err != nil {
				t.Fatal(err)
			}
		}},
	}
	modes := []struct {
		name              string
		root, proactiveAT bool
	}{{"SEED-U", false, false}, {"SEED-R", true, false}, {"SEED-U proactive AT", false, true}}
	for _, c := range classes {
		for _, m := range modes {
			t.Run(c.name+"/"+m.name, func(t *testing.T) {
				mode, want := ModeU, c.u
				if m.root || m.proactiveAT {
					mode, want = ModeR, c.r
				}
				if got := Decide(c.class, mode); got != want {
					t.Fatalf("Decide(%s, %s) = %s, Table 3 says %s", c.name, mode, got, want)
				}
				cfg := DefaultAppletConfig()
				cfg.UseProactiveAT = m.proactiveAT
				h := newAppletHarness(t, cfg)
				if m.root {
					h.applet.HandleEnvelope([]byte{envEnableRoot})
				}
				c.failure(t, h)
				h.k.RunFor(3 * time.Second) // past the 2 s control-plane wait
				if got := h.applet.Stats().Actions; len(got) != 1 || got[want] != 1 {
					t.Errorf("applet executed %v, want %s once", got, want)
				}
			})
		}
	}
}
