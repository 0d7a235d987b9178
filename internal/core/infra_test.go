package core

// Direct tests for the infrastructure plugin's Figure 8 decision tree:
// which assistance each reject class produces, observed at the sealed
// channel by decrypting with the subscriber key.

import (
	"testing"
	"time"

	"github.com/seed5g/seed/internal/cause"
	"github.com/seed5g/seed/internal/core5g"
	"github.com/seed5g/seed/internal/crypto5g"
	"github.com/seed5g/seed/internal/nas"
	"github.com/seed5g/seed/internal/radio"
	"github.com/seed5g/seed/internal/sched"
)

// infraHarness wires a plugin to a network with one SEED subscriber and a
// fake UE that records (and decrypts) every diagnosis delivery.
type infraHarness struct {
	k      *sched.Kernel
	net    *core5g.Network
	plugin *InfraPlugin
	env    *crypto5g.Envelope
	reasm  Reassembler
	diags  []DiagMessage
}

func newInfraHarness(t *testing.T) *infraHarness {
	t.Helper()
	k := sched.New(1)
	net := core5g.NewNetwork(k)
	h := &infraHarness{k: k, net: net, plugin: NewInfraPlugin(k, net)}

	var key, op [16]byte
	copy(key[:], "infra-harness-k0")
	copy(op[:], "infra-harness-op")
	err := net.UDM.AddSubscriber(&core5g.Subscriber{
		IMSI: "ue", K: key, OP: op,
		Authorized: true, PlanActive: true, SEEDEnabled: true,
		DefaultDNN:  "internet",
		AllowedDNNs: []string{"internet"},
		AllowedSST:  []uint8{2},
		Sessions:    map[string]core5g.SessionConfig{"internet": {}},
	})
	if err != nil {
		t.Fatal(err)
	}
	h.env = NewChannelEnvelope(key)

	// The "UE": consume DFlag auth requests, decrypt, ACK.
	net.GNB.AttachUE("ue", func(frame any) bool {
		dl, okD := frame.(*radio.NAS)
		if !okD {
			return true
		}
		data := dl.Bytes
		if nas.IsProtected(data) {
			var err error
			if data, err = nas.StripUnverified(data); err != nil {
				return true
			}
		}
		msg, err := nas.Unmarshal(data)
		if err != nil {
			return true
		}
		req, okR := msg.(*nas.AuthenticationRequest)
		if !okR || !req.IsDiagnosis() {
			return true
		}
		seq := req.AUTN[0]
		if full := h.reasm.Accept(req.AUTN); full != nil {
			if payload, err := h.env.Open(crypto5g.Downlink, full); err == nil {
				if m, err := UnmarshalDiag(payload); err == nil {
					h.diags = append(h.diags, m)
				}
			}
		}
		// ACK via AuthenticationFailure(synch, DiagAck).
		k.After(time.Millisecond, func() {
			net.AMF.HandleUplinkNAS("ue", nas.Marshal(&nas.AuthenticationFailure{
				Cause: cause.MMSynchFailure, AUTS: DiagAck(seq),
			}))
		})
		return true
	})
	return h
}

func (h *infraHarness) lastDiag(t *testing.T) DiagMessage {
	t.Helper()
	h.k.RunFor(5 * time.Second)
	if len(h.diags) == 0 {
		t.Fatal("no diagnosis delivered")
	}
	return h.diags[len(h.diags)-1]
}

func TestFig8StandardizedCauseNoConfig(t *testing.T) {
	h := newInfraHarness(t)
	h.net.AMF.OnReject("ue", cause.MMUEIdentityCannotBeDerived)
	m := h.lastDiag(t)
	if m.Kind != DiagCause || m.Plane != cause.ControlPlane || m.Code != cause.MMUEIdentityCannotBeDerived {
		t.Fatalf("diag = %+v", m)
	}
}

func TestFig8StandardizedCauseWithConfig(t *testing.T) {
	h := newInfraHarness(t)
	h.net.SMF.OnReject("ue", cause.SMMissingOrUnknownDNN)
	m := h.lastDiag(t)
	if m.Kind != DiagCauseConfig || m.ConfigKind != cause.ConfigDNN || string(m.Config) != "internet" {
		t.Fatalf("diag = %+v", m)
	}
}

func TestFig8SliceConfigLookup(t *testing.T) {
	h := newInfraHarness(t)
	h.net.AMF.OnReject("ue", cause.MMNoNetworkSlicesAvailable)
	m := h.lastDiag(t)
	if m.Kind != DiagCauseConfig || m.ConfigKind != cause.ConfigSNSSAI || m.Config[0] != 2 {
		t.Fatalf("diag = %+v", m)
	}
}

func TestFig8CustomCauseWithConfiguredAction(t *testing.T) {
	h := newInfraHarness(t)
	custom := cause.Cause{Plane: cause.ControlPlane, Code: 222}
	h.plugin.AddCustomAction(custom, ActionB2)
	h.net.AMF.OnReject("ue", 222)
	m := h.lastDiag(t)
	if m.Kind != DiagSuggestAction || m.Action != ActionB2 {
		t.Fatalf("diag = %+v", m)
	}
	if h.plugin.Stats().Suggestions != 1 {
		t.Fatalf("suggestions = %d", h.plugin.Stats().Suggestions)
	}
}

func TestFig8UnknownCauseGoesToLearning(t *testing.T) {
	h := newInfraHarness(t)
	h.net.SMF.OnReject("ue", 199)
	m := h.lastDiag(t)
	if m.Kind != DiagUnknown || m.Code != 199 {
		t.Fatalf("diag = %+v", m)
	}
	if h.plugin.Stats().LearningNulls != 1 {
		t.Fatalf("nulls = %d", h.plugin.Stats().LearningNulls)
	}

	// After crowdsourced evidence, the same cause yields a suggestion
	// (with an aggressive learning rate the gate is ≈ always open).
	h.plugin.Learner.LR = 10
	h.plugin.Learner.Crowdsource(Records{
		{Plane: cause.DataPlane, Code: 199}: {ActionB3: 5},
	})
	h.net.SMF.OnReject("ue", 199)
	m = h.lastDiag(t)
	if m.Kind != DiagSuggestAction || m.Action != ActionB3 {
		t.Fatalf("post-learning diag = %+v", m)
	}
}

func TestFig8CongestionOverridesEverything(t *testing.T) {
	h := newInfraHarness(t)
	h.plugin.SetCongestion(true, 45*1)
	h.net.AMF.OnReject("ue", cause.MMUEIdentityCannotBeDerived)
	m := h.lastDiag(t)
	if m.Kind != DiagCongestion || m.WaitSeconds != 45 {
		t.Fatalf("diag = %+v", m)
	}
}

func TestFig8PassiveTimeoutBranch(t *testing.T) {
	h := newInfraHarness(t)
	h.net.AMF.OnTimeoutDrop("ue")
	m := h.lastDiag(t)
	if m.Kind != DiagSuggestAction || m.Action != ActionB1 {
		t.Fatalf("timeout assist = %+v", m)
	}
	if h.plugin.Stats().TimeoutAssists != 1 {
		t.Fatalf("assists = %d", h.plugin.Stats().TimeoutAssists)
	}
}

func TestPluginIgnoresNonSEEDSubscriber(t *testing.T) {
	h := newInfraHarness(t)
	var k2, op2 [16]byte
	copy(k2[:], "legacy-subscr-k0")
	copy(op2[:], "legacy-subscr-op")
	_ = h.net.UDM.AddSubscriber(&core5g.Subscriber{
		IMSI: "legacy", K: k2, OP: op2,
		Authorized: true, PlanActive: true, SEEDEnabled: false,
		Sessions: map[string]core5g.SessionConfig{},
	})
	h.net.AMF.OnReject("legacy", cause.MMPLMNNotAllowed)
	h.k.RunFor(5 * time.Second)
	if h.plugin.Stats().DiagsSent != 0 {
		t.Fatal("diag sent to non-SEED subscriber")
	}
}

func TestMultiFragmentDeliveryStopsWithoutAck(t *testing.T) {
	// If the UE never ACKs (e.g. it vanished), the plugin must not spin:
	// only the first fragment is ever sent.
	k := sched.New(2)
	net := core5g.NewNetwork(k)
	plugin := NewInfraPlugin(k, net)
	var key, op [16]byte
	copy(key[:], "mute-subscriber0")
	copy(op[:], "mute-subscriber1")
	_ = net.UDM.AddSubscriber(&core5g.Subscriber{
		IMSI: "mute", K: key, OP: op,
		Authorized: true, PlanActive: true, SEEDEnabled: true,
		Sessions: map[string]core5g.SessionConfig{},
	})
	net.GNB.AttachUE("mute", func(any) bool { return true }) // swallows everything

	big := make([]byte, 80)
	plugin.SendDiagnosis("mute", DiagMessage{
		Kind: DiagCauseConfig, Plane: cause.DataPlane, Code: 41,
		ConfigKind: cause.ConfigTFT, Config: big,
	})
	k.RunFor(time.Minute)
	if got := plugin.Stats().FragmentsSent; got != 1 {
		t.Fatalf("fragments sent without ACKs = %d, want 1", got)
	}
}
