package core

import (
	"reflect"
	"time"

	"github.com/seed5g/seed/internal/cause"
	"github.com/seed5g/seed/internal/core5g"
	"github.com/seed5g/seed/internal/crypto5g"
	"github.com/seed5g/seed/internal/freelist"
	"github.com/seed5g/seed/internal/nas"
	"github.com/seed5g/seed/internal/report"
	"github.com/seed5g/seed/internal/sched"
)

// InfraStats counts plugin activity.
type InfraStats struct {
	DiagsSent      int
	FragmentsSent  int
	AcksReceived   int
	TimeoutAssists int
	ReportsIn      int
	PolicyFixes    int
	DNSFixes       int
	Suggestions    int
	LearningNulls  int
	RecordUploads  int
}

// InfraPlugin is the SEED core-network module of §6: it hooks the AMF/SMF
// reject-generation paths, classifies failures with the Figure 8 decision
// tree, fetches up-to-date configurations from the subscription store,
// warns about congestion, runs the infrastructure side of the online
// learning algorithm, and drives the real-time collaboration channel.
type InfraPlugin struct {
	k   *sched.Kernel
	net *core5g.Network

	// PrepLatency models diagnosis-message preparation (§7.2.2 measures
	// 12.8 ms on the downlink).
	PrepLatency time.Duration

	// Learner is the Algorithm 1 infrastructure side.
	Learner *Learner

	// customActions maps operator-customized (unstandardized) causes to
	// configured suggested actions (§5.2 "customized causes with
	// suggested actions").
	customActions map[cause.Cause]ActionID

	congested   bool
	congestWait uint16

	envs  map[string]*crypto5g.Envelope
	reasm map[string]*DNNReassembler
	// pending holds each UE's diagnosis in delivery; an entry, once made,
	// stays and is reused by the UE's next diagnosis.
	pending map[string]*diagSend
	// jobs is the free list of diagnoses waiting out PrepLatency
	// (SendDiagnosis), prepFn their event; plain and sealed are the
	// marshal and seal buffers the fragments are cut from.
	jobs          freelist.List[diagJob]
	prepFn        func(any) // arg: *diagJob
	plain, sealed []byte
	// dnnConfig is the byte form of the default DNN lookupConfig sent last
	// (a diagnosis carries it as its configuration item); a subscriber's
	// default rarely changes, and the bytes are only ever read.
	dnnConfig []byte
	// fragReq is the Authentication Request each fragment goes out in;
	// AMF.SendRaw encodes it before returning.
	fragReq nas.AuthenticationRequest

	// Figure 12 instrumentation (optional).
	// OnDiagTiming fires when a delivery's final ACK arrives, with the
	// preparation time (request → first fragment sent) and transmission
	// time (first fragment → final ACK).
	OnDiagTiming func(prep, trans time.Duration)
	// OnReportReceived fires when an uplink report is fully reassembled
	// and decrypted.
	OnReportReceived func(imsi string)

	diagStart map[string]time.Duration // SendDiagnosis call time
	diagSent  map[string]time.Duration // first fragment send time

	stats InfraStats
}

// trace emits ev, stamped with the virtual time, to the kernel's observer if
// it traces decisions.
func (p *InfraPlugin) trace(ev DecisionEvent) {
	if t, traced := p.k.Observer().(DecisionTracer); traced {
		ev.At = p.k.Now()
		t.Decision(ev)
	}
}

// NewInfraPlugin creates and attaches the plugin to a core network.
func NewInfraPlugin(k *sched.Kernel, net *core5g.Network) *InfraPlugin {
	p := &InfraPlugin{
		k: k, net: net,
		PrepLatency:   12800 * time.Microsecond,
		Learner:       NewLearner(0.1, k.Rand()),
		customActions: make(map[cause.Cause]ActionID),
		envs:          make(map[string]*crypto5g.Envelope),
		reasm:         make(map[string]*DNNReassembler),
		pending:       make(map[string]*diagSend),
		diagStart:     make(map[string]time.Duration),
		diagSent:      make(map[string]time.Duration),
	}
	net.AMF.OnReject = func(imsi string, code cause.Code) {
		p.onReject(imsi, cause.MM(code))
	}
	net.SMF.OnReject = func(imsi string, code cause.Code) {
		p.onReject(imsi, cause.SM(code))
	}
	net.SMF.OnDiagReport = p.onUplinkFragment
	net.AMF.OnDiagAck = p.onDiagAck
	net.AMF.OnTimeoutDrop = p.onTimeout
	net.SMF.OnTimeoutDrop = p.onTimeout
	net.SMF.AllowDiagSessions = true
	p.prepFn = p.prepared
	return p
}

// diagSend is one UE's diagnosis delivery: frags[next:] await their ACK.
type diagSend struct {
	frags [][16]byte
	next  int
}

// diagJob is a diagnosis being prepared.
type diagJob struct {
	imsi string
	env  *crypto5g.Envelope
	m    DiagMessage
}

// Warm fills the plugin's free lists ahead of a prototype snapshot (see
// core5g.Network.Warm): a delivery entry for every provisioned UE and a
// diagnosis job, so that a restored run's diagnoses allocate none.
func (p *InfraPlugin) Warm() {
	for imsi := range p.envs {
		if p.pending[imsi] == nil {
			p.pending[imsi] = &diagSend{frags: make([][16]byte, 0, warmFragments)}
		}
	}
	p.jobs.Warm(1)
	if cap(p.sealed) == 0 {
		p.plain, p.sealed = make([]byte, 0, warmPayload), make([]byte, 0, warmPayload)
	}
}

// Stats returns a copy of the counters.
func (p *InfraPlugin) Stats() InfraStats { return p.stats }

// SetCongestion toggles the congestion warning path: while congested,
// diagnosis deliveries become wait notices instead of reset triggers.
func (p *InfraPlugin) SetCongestion(on bool, waitSeconds uint16) {
	p.congested = on
	p.congestWait = waitSeconds
}

// AddCustomAction configures a suggested action for an operator-
// customized cause.
func (p *InfraPlugin) AddCustomAction(c cause.Cause, a ActionID) {
	p.customActions[c] = a
}

// Provision builds the collaboration channel of a SEED-enabled subscriber
// ahead of its first use (three key expansions), so that a testbed
// snapshotted after its devices were built restores it, counters and all,
// instead of rebuilding it in every run. A no-op for other subscribers.
func (p *InfraPlugin) Provision(imsi string) { p.envelope(imsi) }

func (p *InfraPlugin) envelope(imsi string) *crypto5g.Envelope {
	if e, okE := p.envs[imsi]; okE {
		return e
	}
	sub, okS := p.net.UDM.Subscriber(imsi)
	if !okS || !sub.SEEDEnabled {
		return nil
	}
	e := NewChannelEnvelope(sub.K)
	p.envs[imsi] = e
	return e
}

// onReject is the Figure 8 "active" branch: a reject was composed; decide
// what assistance to send.
func (p *InfraPlugin) onReject(imsi string, c cause.Cause) {
	if p.congested {
		p.trace(DecisionEvent{Stage: StageInfraCongestion, IMSI: imsi, Plane: c.Plane, Code: c.Code, Seq: -1, Wait: time.Duration(p.congestWait) * time.Second})
		p.SendDiagnosis(imsi, DiagMessage{
			Kind: DiagCongestion, Plane: c.Plane, Code: c.Code,
			WaitSeconds: p.congestWait,
		})
		return
	}
	info, std := cause.Lookup(c)
	switch {
	case std && info.ConfigRelated():
		kind, cfg := p.lookupConfig(imsi, c, info.Config)
		p.trace(DecisionEvent{Stage: StageInfraConfig, IMSI: imsi, Plane: c.Plane, Code: c.Code, Seq: -1})
		p.SendDiagnosis(imsi, DiagMessage{
			Kind: DiagCauseConfig, Plane: c.Plane, Code: c.Code,
			ConfigKind: kind, Config: cfg,
		})
	case std:
		p.trace(DecisionEvent{Stage: StageInfraCause, IMSI: imsi, Plane: c.Plane, Code: c.Code, Seq: -1})
		p.SendDiagnosis(imsi, DiagMessage{Kind: DiagCause, Plane: c.Plane, Code: c.Code})
	default:
		// Unstandardized (customized) cause.
		if a, okA := p.customActions[c]; okA {
			p.stats.Suggestions++
			p.trace(DecisionEvent{Stage: StageInfraCustomSuggest, IMSI: imsi, Plane: c.Plane, Code: c.Code, Action: a, Seq: -1})
			p.SendDiagnosis(imsi, DiagMessage{
				Kind: DiagSuggestAction, Plane: c.Plane, Code: c.Code, Action: a,
			})
			return
		}
		if a, okA := p.Learner.Suggest(c); okA {
			p.stats.Suggestions++
			p.trace(DecisionEvent{Stage: StageInfraLearnerSuggest, IMSI: imsi, Plane: c.Plane, Code: c.Code, Action: a, Seq: -1, Evidence: clampEvidence(p.Learner.Evidence(c))})
			p.SendDiagnosis(imsi, DiagMessage{
				Kind: DiagSuggestAction, Plane: c.Plane, Code: c.Code, Action: a,
			})
			return
		}
		p.stats.LearningNulls++
		p.trace(DecisionEvent{Stage: StageInfraLearnerNull, IMSI: imsi, Plane: c.Plane, Code: c.Code, Seq: -1, Evidence: clampEvidence(p.Learner.Evidence(c))})
		p.SendDiagnosis(imsi, DiagMessage{Kind: DiagUnknown, Plane: c.Plane, Code: c.Code})
	}
}

// clampEvidence folds an observation count into the event's int32 field.
func clampEvidence(n int) int32 {
	if n > 1<<31-1 {
		return 1<<31 - 1
	}
	return int32(n)
}

// onTimeout is the Figure 8 passive "without device response" branch: the
// infrastructure suggests a hardware reset.
func (p *InfraPlugin) onTimeout(imsi string) {
	p.stats.TimeoutAssists++
	p.trace(DecisionEvent{Stage: StageInfraTimeoutAssist, IMSI: imsi, Plane: cause.ControlPlane, Action: ActionB1, Seq: -1})
	p.SendDiagnosis(imsi, DiagMessage{
		Kind: DiagSuggestAction, Plane: cause.ControlPlane, Action: ActionB1,
	})
}

// lookupConfig fetches the up-to-date configuration item for a
// config-related cause from the subscription store (Appendix A).
func (p *InfraPlugin) lookupConfig(imsi string, c cause.Cause, kind cause.ConfigKind) (cause.ConfigKind, []byte) {
	sub, okS := p.net.UDM.Subscriber(imsi)
	if !okS {
		return kind, nil
	}
	switch kind {
	case cause.ConfigDNN:
		if string(p.dnnConfig) != sub.DefaultDNN {
			p.dnnConfig = []byte(sub.DefaultDNN)
		}
		return kind, p.dnnConfig
	case cause.ConfigSNSSAI:
		if len(sub.AllowedSST) > 0 {
			return kind, []byte{sub.AllowedSST[0], 0, 0, 0}
		}
		return kind, []byte{1, 0, 0, 0}
	case cause.ConfigSupportedRAT:
		return kind, []byte{2} // NR
	case cause.ConfigSessionType:
		return kind, []byte{byte(nas.SessionIPv4)}
	case cause.ConfigTFT, cause.ConfigPacketFilter, cause.Config5QI, cause.ConfigPDUSession:
		// Applied through a session modification; the config payload is
		// just the marker (the authoritative values ride in the
		// Modification Command).
		return kind, []byte{1}
	default:
		return kind, nil
	}
}

// SendDiagnosis seals, fragments, and begins delivering a diagnosis
// message over the Authentication Request channel (Fig 7a).
func (p *InfraPlugin) SendDiagnosis(imsi string, m DiagMessage) {
	env := p.envelope(imsi)
	if env == nil {
		return
	}
	p.diagStart[imsi] = p.k.Now()
	j := p.jobs.Get()
	j.imsi, j.env, j.m = imsi, env, m
	p.k.AfterArg(p.PrepLatency, p.prepFn, j)
}

// prepared seals and fragments a prepared diagnosis and sends its first
// fragment.
func (p *InfraPlugin) prepared(v any) {
	j := v.(*diagJob)
	imsi, env, m := j.imsi, j.env, j.m
	p.jobs.Put(j)
	p.plain = m.AppendMarshal(p.plain[:0])
	p.sealed = env.AppendSeal(p.sealed[:0], crypto5g.Downlink, p.plain)
	p.stats.DiagsSent++
	d := p.pending[imsi]
	if d == nil {
		d = new(diagSend)
		p.pending[imsi] = d
	}
	d.frags, d.next = AppendFragmentsAUTN(d.frags[:0], p.sealed), 0
	p.diagSent[imsi] = p.k.Now()
	p.sendNextFragment(imsi)
}

func (p *InfraPlugin) sendNextFragment(imsi string) {
	d := p.pending[imsi]
	if d == nil || d.next == len(d.frags) {
		return
	}
	frag := d.frags[d.next]
	p.stats.FragmentsSent++
	p.net.AMF.MarkDiagPending(imsi)
	p.fragReq = nas.AuthenticationRequest{NgKSI: 7, RAND: nas.DFlagRAND, AUTN: frag}
	p.net.AMF.SendRaw(imsi, &p.fragReq)
}

// onDiagAck advances fragment delivery when the SIM's AUTS ACK arrives.
func (p *InfraPlugin) onDiagAck(imsi string, auts []byte) {
	if _, okA := ParseDiagAck(auts); !okA {
		return
	}
	p.stats.AcksReceived++
	if d := p.pending[imsi]; d != nil && d.next < len(d.frags) {
		d.next++
		if d.next == len(d.frags) && p.OnDiagTiming != nil {
			p.OnDiagTiming(p.diagSent[imsi]-p.diagStart[imsi], p.k.Now()-p.diagSent[imsi])
		}
		p.sendNextFragment(imsi)
	}
}

// onUplinkFragment consumes one DIAG-DNN payload (hex after the prefix).
func (p *InfraPlugin) onUplinkFragment(imsi string, payload []byte) {
	r := p.reasm[imsi]
	if r == nil {
		r = &DNNReassembler{}
		p.reasm[imsi] = r
	}
	sealed, err := r.Accept(string(payload))
	if err != nil || sealed == nil {
		return
	}
	env := p.envelope(imsi)
	if env == nil {
		return
	}
	raw, err := env.Open(crypto5g.Uplink, sealed)
	if err != nil {
		return
	}
	rep, err := report.Unmarshal(raw)
	if err != nil {
		return
	}
	p.stats.ReportsIn++
	p.k.After(p.PrepLatency, func() {
		if p.OnReportReceived != nil {
			p.OnReportReceived(imsi)
		}
		p.handleReport(imsi, rep)
	})
}

// handleReport validates a device failure report against network-side
// policy state and repairs what it finds (§4.4.2 with-root flow).
func (p *InfraPlugin) handleReport(imsi string, rep report.FailureReport) {
	sub, okS := p.net.UDM.Subscriber(imsi)
	if !okS {
		return
	}
	switch rep.Type {
	case report.FailTCP, report.FailUDP:
		proto := nas.ProtoTCP
		if rep.Type == report.FailUDP {
			proto = nas.ProtoUDP
		}
		fixed := false
		// Conflicting operator policy blocks: remove the offending ones.
		var kept []core5g.PolicyBlock
		for _, b := range p.net.UPF.Blocks(imsi) {
			if b.Proto == proto || b.Proto == nas.ProtoAny {
				fixed = true
				continue
			}
			kept = append(kept, b)
		}
		if fixed {
			p.net.UPF.ClearBlocks(imsi)
			for _, b := range kept {
				p.net.UPF.AddBlock(imsi, b)
			}
			p.stats.PolicyFixes++
		}
		// Re-push the authoritative session configuration only where the
		// deployed one drifted (a corrupted TFT); the device-side reset
		// covers everything else (§4.4.2).
		for _, id := range p.net.SMF.SessionIDs(imsi) {
			ctx, okC := p.net.SMF.Session(imsi, id)
			if !okC || ctx.Diag {
				continue
			}
			authoritative, okD := sub.Sessions[ctx.DNN]
			if okD && !reflect.DeepEqual(ctx.Config, authoritative) {
				p.net.SMF.PushModification(imsi, id, authoritative)
			}
		}
	case report.FailDNS:
		// Carrier LDNS trouble: repoint at the public resolver — both the
		// live session (modification) and the authoritative subscription
		// config, so a followup reset's fresh session also gets the fix.
		p.stats.DNSFixes++
		for dnn, cfg := range sub.Sessions {
			cfg.DNS = []nas.Addr{core5g.PublicDNSAddr}
			sub.Sessions[dnn] = cfg
		}
		for _, id := range p.net.SMF.SessionIDs(imsi) {
			ctx, okC := p.net.SMF.Session(imsi, id)
			if !okC || ctx.Diag {
				continue
			}
			cfg := ctx.Config
			cfg.DNS = []nas.Addr{core5g.PublicDNSAddr}
			p.net.SMF.PushModification(imsi, id, cfg)
		}
	}
}

// ReceiveRecordUpload ingests a SIM's learning-record blob (the OTA leg
// of Algorithm 1) into the crowd-sourced model.
func (p *InfraPlugin) ReceiveRecordUpload(blob []byte) error {
	recs, err := UnmarshalRecords(blob)
	if err != nil {
		return err
	}
	p.stats.RecordUploads++
	if _, traced := p.k.Observer().(DecisionTracer); traced {
		merged := 0
		for c := range recs {
			merged += recs.Evidence(c)
		}
		p.trace(DecisionEvent{Stage: StageInfraCrowdsource, Seq: -1, Evidence: clampEvidence(merged)})
	}
	p.Learner.Crowdsource(recs)
	return nil
}
