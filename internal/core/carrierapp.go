package core

import (
	"fmt"
	"time"

	"github.com/seed5g/seed/internal/cause"
	"github.com/seed5g/seed/internal/modem"
	"github.com/seed5g/seed/internal/nas"
	"github.com/seed5g/seed/internal/report"
	"github.com/seed5g/seed/internal/sched"
	"github.com/seed5g/seed/internal/sim"
)

// CarrierAppStats counts carrier-app activity.
type CarrierAppStats struct {
	AppReports      int
	OSReports       int
	FilteredReports int
	ConfigUpdates   int
	DataResets      int
	FastResets      int
	ATCommands      int
	UplinkReports   int
}

// The carrier app's processing model.
const (
	// appProcLatency models carrier-app processing per operation.
	appProcLatency = 10 * time.Millisecond
	// configApplyLatency models the carrier-config propagation delay on
	// the A3 make-before-break reset (telephony re-evaluates the APN
	// settings before re-dialing).
	configApplyLatency = 550 * time.Millisecond
)

// CarrierApp is the operator's on-device application (§6): it runs the
// failure-report service (app reports via a bound service, OS reports via
// the Connectivity Diagnostics API), the recovery action module (UICC
// privilege config updates without root, AT commands with), detects root
// to enable SEED-R, and filters report input for the SIM (§7.3).
//
// It also implements DeviceActions — the applet's outbound interface.
type CarrierApp struct {
	k   *sched.Kernel
	mdm *modem.Modem

	rooted bool

	// dnsOverride is the device-level DNS the app configured (A3 DNS fix).
	dnsOverride nas.Addr

	// OnUplinkSent observes the first uplink report fragment leaving the
	// modem (Figure 12 instrumentation).
	OnUplinkSent func()

	// recordSink receives the SIM's learning-record blobs on UploadRecords.
	// The in-process testbed points it at the local infrastructure plugin;
	// the fleet client points it at a networked carrier service — both
	// uploads go through the same carrier-app code path.
	recordSink RecordSink

	// appletSelected caches whether the SEED applet's logical channel is
	// already open (SELECT once, then ENVELOPE directly).
	appletSelected bool
	// inflight are the app's APDUs the modem has not answered yet, in the
	// order sent, which is the order the answers come in; onAPDUFn takes
	// each answer. aid is the SELECT's data and ops the one-byte
	// envelopes', both only ever read.
	inflight []sentAPDU
	onAPDUFn func(sim.Response)
	aid      []byte
	ops      [8]byte

	// swap state for make-before-break resets.
	pendingSwap map[uint8]func(*modem.Session)

	stats CarrierAppStats
}

// NewCarrierApp creates the carrier app bound to the device modem.
func NewCarrierApp(k *sched.Kernel, mdm *modem.Modem) *CarrierApp {
	c := &CarrierApp{
		k: k, mdm: mdm,
		pendingSwap: make(map[uint8]func(*modem.Session)),
		aid:         []byte(AppletAID),
		ops:         [8]byte{0, 1, 2, 3, 4, 5, 6, 7},
	}
	c.onAPDUFn = c.onAPDU
	return c
}

// op returns the one-byte envelope of opcode b.
func (c *CarrierApp) op(b byte) []byte { return c.ops[b : b+1 : b+1] }

// warm makes room for the APDUs of an applet SELECT and its ENVELOPE ahead
// of a prototype snapshot.
func (c *CarrierApp) warm() {
	if cap(c.inflight) == 0 {
		c.inflight = make([]sentAPDU, 0, 2)
	}
}

// Stats returns a copy of the counters.
func (c *CarrierApp) Stats() CarrierAppStats { return c.stats }

// DNSOverride returns the app-configured DNS server (zero when unset).
func (c *CarrierApp) DNSOverride() nas.Addr { return c.dnsOverride }

// DetectRoot models the Runtime-API root check: when root is present the
// app notifies the SIM to enable SEED-R.
func (c *CarrierApp) DetectRoot(rooted bool) {
	c.rooted = rooted
	op := envDisableRoot
	if rooted {
		op = envEnableRoot
	}
	c.toSIM(c.op(op), nil)
}

// toSIM delivers an envelope to the SEED applet through the modem's APDU
// channel (SELECT AID, then ENVELOPE).
func (c *CarrierApp) toSIM(data []byte, done func([]byte, error)) {
	c.transmit(sentAPDU{data: data, done: done, sel: !c.appletSelected})
}

// sentAPDU is an APDU of toSIM's in flight: the SELECT that opens the
// applet's channel (sel) or the ENVELOPE of data.
type sentAPDU struct {
	data []byte
	done func([]byte, error)
	sel  bool
}

func (c *CarrierApp) transmit(a sentAPDU) {
	c.inflight = append(c.inflight, a)
	if a.sel {
		c.mdm.TransmitAPDU(sim.Command{CLA: 0x80, INS: sim.INSSelect, P1: 0x04, Data: c.aid}, c.onAPDUFn)
	} else {
		c.mdm.TransmitAPDU(sim.Command{CLA: 0x80, INS: sim.INSEnvelope, Data: a.data}, c.onAPDUFn)
	}
}

// onAPDU takes the answer to the oldest APDU in flight: a SELECT's sends
// its ENVELOPE, an ENVELOPE's goes to done.
func (c *CarrierApp) onAPDU(resp sim.Response) {
	a := c.inflight[0]
	c.inflight = append(c.inflight[:0], c.inflight[1:]...)
	switch {
	case a.sel && !resp.OK():
		if a.done != nil {
			a.done(nil, fmt.Errorf("core: applet select failed: SW=%04X", resp.SW))
		}
	case a.sel:
		c.appletSelected = true
		a.sel = false
		c.transmit(a)
	case a.done == nil:
	case !resp.OK():
		a.done(nil, fmt.Errorf("core: envelope failed: SW=%04X", resp.SW))
	default:
		a.done(resp.Data, nil)
	}
}

// ReportAppFailure is the app-facing failure report API (§4.3.2). Reports
// are validated before reaching the SIM — the input filtering of §7.3.
func (c *CarrierApp) ReportAppFailure(r report.FailureReport) {
	if !c.validReport(r) {
		c.stats.FilteredReports++
		return
	}
	c.stats.AppReports++
	c.k.After(appProcLatency, func() {
		c.toSIM(append([]byte{envAppReport}, r.Marshal()...), nil)
	})
}

// OnDataStall is the Connectivity-Diagnostics subscription: Android's
// data-stall notification becomes an OS-originated failure report.
func (c *CarrierApp) OnDataStall(reason string) {
	var r report.FailureReport
	switch reason {
	case "dns":
		r = report.FailureReport{Type: report.FailDNS, Direction: report.DirBoth, Domain: "detected-by-os"}
	default:
		r = report.FailureReport{Type: report.FailTCP, Direction: report.DirBoth, Port: 443}
	}
	c.stats.OSReports++
	c.k.After(appProcLatency, func() {
		c.toSIM(append([]byte{envAppReport}, r.Marshal()...), nil)
	})
}

// NotifyValidated forwards the connectivity-restored signal to the SIM.
func (c *CarrierApp) NotifyValidated() {
	c.toSIM(c.op(envValidated), nil)
}

// NotifySessionUp lets the device glue feed session events into pending
// make-before-break swaps.
func (c *CarrierApp) NotifySessionUp(s *modem.Session) {
	if fn, okF := c.pendingSwap[s.ID]; okF {
		delete(c.pendingSwap, s.ID)
		fn(s)
	}
}

// RecordSink consumes a SIM learning-record blob pulled by UploadRecords.
// Implementations may deliver it in-process (the testbed's infrastructure
// plugin) or over the network (the fleet client).
type RecordSink func(blob []byte)

// SetRecordSink installs the destination for uploaded learning records.
func (c *CarrierApp) SetRecordSink(sink RecordSink) { c.recordSink = sink }

// UploadRecords pulls the SIM's learning records (envelope 0x04) and
// hands them to the configured RecordSink — the OTA leg of Algorithm 1
// line 6. Empty record sets are not delivered.
func (c *CarrierApp) UploadRecords() {
	c.toSIM([]byte{envUploadRecs}, func(data []byte, err error) {
		if err == nil && len(data) > 0 && c.recordSink != nil {
			c.recordSink(data)
		}
	})
}

// validReport sanity-checks report fields (type range, port/domain shape).
func (c *CarrierApp) validReport(r report.FailureReport) bool {
	if r.Type < report.FailDNS || r.Type > report.FailUDP {
		return false
	}
	if r.Direction < report.DirUplink || r.Direction > report.DirBoth {
		return false
	}
	if r.Type == report.FailDNS {
		return len(r.Domain) > 0 && len(r.Domain) <= 253
	}
	return true
}

// --- DeviceActions implementation ---------------------------------------

// RunAT executes an AT command (SEED-R only).
func (c *CarrierApp) RunAT(cmd string) error {
	if !c.rooted {
		return fmt.Errorf("core: AT commands require root (SEED-R)")
	}
	c.stats.ATCommands++
	c.k.After(appProcLatency, func() { _, _ = c.mdm.Execute(cmd) })
	return nil
}

// UpdateDataConfig applies a data-plane configuration item through the
// carrier-config path (no root needed).
func (c *CarrierApp) UpdateDataConfig(kind cause.ConfigKind, value []byte) {
	c.stats.ConfigUpdates++
	switch kind {
	case cause.ConfigDNN:
		c.mdm.OverrideSessionDNN(string(value))
	case cause.ConfigSessionType, cause.ConfigTFT, cause.ConfigPacketFilter, cause.Config5QI:
		// Applied network-side via modification; nothing local to change.
	case cause.ConfigGeneric:
		if len(value) == 4 {
			c.SetDNSOverride(nas.Addr(value))
		}
	}
}

// SetDNSOverride points the device at a different resolver (A3 DNS fix).
func (c *CarrierApp) SetDNSOverride(a nas.Addr) {
	c.dnsOverride = a
	c.k.Announce(sched.ResolverOverride, a.Word(), 0)
}

// ResetDataConnection cycles the default data session make-before-break:
// the replacement session comes up before the old one is released, so the
// gNB never sees a last-bearer release (A3).
func (c *CarrierApp) ResetDataConnection() {
	c.stats.DataResets++
	c.k.Announce(sched.DataReset, 0, c.stats.DataResets)
	c.k.After(appProcLatency+configApplyLatency, func() {
		old := currentSessions(c.mdm)
		newID := c.mdm.EstablishSession(c.mdm.Profile().DNN, nas.SessionIPv4)
		c.pendingSwap[newID] = func(*modem.Session) {
			for _, id := range old {
				c.mdm.ReleaseSession(id)
			}
		}
	})
}

// FastDataReset is the Fig 6 sequence: set up a DIAG session to hold the
// radio bearer, reset the DATA session, then drop the DIAG session — no
// control-plane reattach.
func (c *CarrierApp) FastDataReset() {
	c.stats.FastResets++
	c.k.Announce(sched.DataReset, 1, c.stats.FastResets)
	c.k.After(appProcLatency, func() {
		old := currentSessions(c.mdm)
		diagID := c.mdm.EstablishSession("DIAG", nas.SessionIPv4)
		c.pendingSwap[diagID] = func(*modem.Session) {
			// 2. release the DATA session(s)
			for _, id := range old {
				c.mdm.ReleaseSession(id)
			}
			// 3. set up the fresh DATA session
			dataID := c.mdm.EstablishSession(c.mdm.Profile().DNN, nas.SessionIPv4)
			c.pendingSwap[dataID] = func(*modem.Session) {
				// 4. release the DIAG session
				c.mdm.ReleaseSession(diagID)
			}
		}
	})
}

// RequestDataModification asks the network to re-push the authoritative
// session configuration (B3 modification).
func (c *CarrierApp) RequestDataModification() {
	c.k.After(appProcLatency, func() {
		if s, okS := c.mdm.FirstActiveSession(); okS {
			c.mdm.RequestModification(s.ID)
		}
	})
}

// SendUplinkReport transmits sealed report fragments as DIAG DNN session
// requests (Fig 7b), spaced one signaling round apart.
func (c *CarrierApp) SendUplinkReport(frags []string) {
	c.stats.UplinkReports++
	for i, f := range frags {
		frag := f
		first := i == 0
		c.k.After(appProcLatency+time.Duration(i)*60*time.Millisecond, func() {
			if first && c.OnUplinkSent != nil {
				c.OnUplinkSent()
			}
			c.mdm.SendRawSessionRequest(frag)
		})
	}
}

// currentSessions lists the active internet-class sessions (the IMS PDN
// and DIAG placeholders are never cycled by resets).
func currentSessions(m *modem.Modem) []uint8 {
	var out []uint8
	for _, s := range m.Sessions() {
		if s.Active && s.DNN != "ims" && s.DNN != "DIAG" {
			out = append(out, s.ID)
		}
	}
	return out
}
