package seed

import (
	"time"

	"github.com/seed5g/seed/internal/core5g"
)

// ReplayResult is the outcome of reproducing one failure case on the
// testbed.
type ReplayResult struct {
	// Recovered reports whether data connectivity came back within the
	// replay window.
	Recovered bool
	// Disruption is the outage duration (onset → recovery); meaningless
	// when Recovered is false.
	Disruption time.Duration
	// UserNotified reports whether SEED raised a user-action notification
	// (the correct handling for unrecoverable cases).
	UserNotified bool
	// UserActionRequired marks cases no automatic reset can fix.
	UserActionRequired bool
	// Actions counts the multi-tier reset actions executed, keyed by
	// action name (empty for legacy devices) — the per-cause breakdown
	// and policy recovery-cost input.
	Actions map[string]int
	// Reboots is the modem reboot count (legacy ladder escalations and
	// B1 resets) — the user-visible-impact input.
	Reboots int
	// Decisions is the applet's execution-decision count: the
	// counterfactual pin space for this cell.
	Decisions int
}

// captureDevice fills the result's device-side counters.
func (r *ReplayResult) captureDevice(d *Device) {
	r.Actions = d.ActionCounts()
	r.Reboots = d.Reboots()
	r.Decisions = d.Decisions()
}

// replayWindow bounds how long a management replay may run (the legacy
// stale-everywhere tail reaches ~45 min).
const replayWindow = 90 * time.Minute

// connectDeadline bounds a healthy boot.
const connectDeadline = time.Minute

// ReplayManagement reproduces one management-failure case from the
// dataset with a device of the given mode, and measures the resulting
// service disruption the way §7.1.1 does. Cases whose failure manifests
// after a clean boot run on a cloned prototype testbed; cases that inject
// before the device ever starts boot fresh (their measured window IS the
// boot).
func ReplayManagement(fc FailureCase, mode Mode, seedVal int64) ReplayResult {
	return ReplayManagementRF(fc, mode, seedVal, 0)
}

// ReplayManagementRF is ReplayManagement under a radio-degradation
// profile: the device's radio link carries uniform jitter for the whole
// replay (the workload generator's RF profiles). rfJitter == 0 is exactly
// ReplayManagement.
func ReplayManagementRF(fc FailureCase, mode Mode, seedVal int64, rfJitter time.Duration) ReplayResult {
	return ReplayManagementInst(fc, mode, seedVal, RFProfile{Jitter: rfJitter}, nil)
}

// RFProfile bundles a cell's radio-degradation profile: uniform per-frame
// jitter plus scheduled loss/partition windows (offsets relative to the
// cell's start).
type RFProfile struct {
	Jitter  time.Duration
	Windows []RFWindow
}

// ReplayManagementInst is ReplayManagementRF under a full RF profile and
// an optional Instrument: decision tracing, counterfactual overrides, and
// policy knobs. inst == nil with an empty profile is exactly
// ReplayManagement (the TraceOff path, untouched). Instrumented cells
// cannot share the pooled prototypes (their applet config and hooks are
// per-cell), so scenarios that normally clone fresh-boot under the
// identical seed protocol instead — fixed boot seed, Reseed at the same
// post-boot instant — which keeps a pure-observer instrumented run
// byte-comparable to the cloned uninstrumented one.
func ReplayManagementInst(fc FailureCase, mode Mode, seedVal int64, rf RFProfile, inst *Instrument) ReplayResult {
	if fc.Scenario == ScenarioDesync {
		if inst == nil {
			tb, d, put := bareProtos.Proto(mode).Cell(seedVal)
			defer put()
			if rf.Jitter > 0 {
				// The prototype restore rewinds the link on the next
				// acquire, so the profile applies to this cell only.
				d.inner.Radio.SetJitter(rf.Jitter)
			}
			// Window events scheduled post-acquire are likewise rewound
			// with the kernel snapshot on the next acquire.
			tb.armRFWindows(d.inner, rf.Windows)
			return replayDesyncOn(tb, d)
		}
		tb := New(protoBootSeed)
		tb.SetInstrument(inst)
		d := tb.NewDevice(mode)
		d.Start()
		tb.RunUntil(d.Connected, connectDeadline)
		tb.Reseed(seedVal)
		if rf.Jitter > 0 {
			d.inner.Radio.SetJitter(rf.Jitter)
		}
		tb.armRFWindows(d.inner, rf.Windows)
		return replayDesyncOn(tb, d)
	}
	tb := New(seedVal)
	tb.rfJitter = rf.Jitter
	tb.rfWindows = rf.Windows
	tb.SetInstrument(inst)
	switch fc.Scenario {
	case ScenarioTransient, ScenarioSilent:
		return tb.replayInjected(fc, mode)
	case ScenarioStaleConfigDevice:
		if fc.ControlPlane {
			return tb.replayStaleCPlaneDevice(fc, mode)
		}
		return tb.replayStaleDNN(mode, true, 0)
	case ScenarioStaleConfigEverywhere:
		if fc.ControlPlane {
			return tb.replayStaleSlice(fc, mode)
		}
		return tb.replayStaleDNN(mode, false, fc.Heal)
	case ScenarioUserAction:
		return tb.replayUserAction(fc, mode)
	default:
		return ReplayResult{}
	}
}

// measureFromBoot starts the device, detects failure onset (first reject
// seen, or the first failed attach attempt for silent cases), and measures
// until connectivity. prep runs before Start.
func (tb *Testbed) measureFromBoot(mode Mode, prep func(d *Device), opts ...DeviceOption) ReplayResult {
	d := tb.NewDevice(mode, opts...)
	onset := time.Duration(-1)
	d.OnReject(func(bool, uint8) {
		if onset < 0 {
			onset = tb.Now()
		}
	})
	if prep != nil {
		prep(d)
	}
	d.Start()
	connected := tb.RunUntil(d.Connected, replayWindow)
	if onset < 0 {
		// Silent case (or none manifested): onset is the nominal first
		// procedure instant — boot + profile read + list search.
		onset = 1140 * time.Millisecond
	}
	res := ReplayResult{UserNotified: d.UserNoticeCount() > 0}
	res.captureDevice(d)
	if !connected {
		return res
	}
	dis := tb.Now() - onset
	if dis < 0 {
		dis = 0
	}
	res.Recovered = true
	res.Disruption = dis
	return res
}

// replayInjected handles transient and silent cases via reject rules that
// heal after the record's heal time.
func (tb *Testbed) replayInjected(fc FailureCase, mode Mode) ReplayResult {
	return tb.measureFromBoot(mode, func(d *Device) {
		o := InjectOpts{Count: -1, HealAfter: fc.Heal, Silent: fc.Scenario == ScenarioSilent}
		if fc.ControlPlane {
			tb.InjectControlFailure(d, fc.CauseCode, o)
		} else {
			tb.InjectDataFailure(d, fc.CauseCode, o)
		}
	})
}

// replayDesyncOn takes a connected device (from a cloned or fresh boot),
// loses the UE context network-side, and triggers a mobility
// re-registration with the now-stale identity.
func replayDesyncOn(tb *Testbed, d *Device) ReplayResult {
	if !d.Connected() {
		return ReplayResult{}
	}
	tb.DesyncIdentity(d)
	tb.SimulateMobility(d)
	onset := tb.Now()
	// Run one event so the connectivity drop registers, then wait for
	// recovery.
	recovered := tb.RunUntil(func() bool { return tb.Now() > onset && d.Connected() }, replayWindow)
	res := ReplayResult{Recovered: recovered}
	res.captureDevice(d)
	if recovered {
		res.Disruption = tb.Now() - onset
	}
	return res
}

// replayStaleDNN reproduces the outdated-APN failure: the subscription
// uses "internet2", the modem cache still says "internet". With simHasNew
// the SIM was OTA-updated (a reload fixes it); otherwise the stale value
// is everywhere and the operator's OTA repair lands only at otaHeal.
func (tb *Testbed) replayStaleDNN(mode Mode, simHasNew bool, otaHeal time.Duration) ReplayResult {
	return tb.measureFromBoot(mode, func(d *Device) {
		tb.MigrateSubscription(d, "internet2", false)
		if simHasNew {
			// SIM already has the new DNN; the modem cache keeps the old
			// one after its initial profile read.
			tb.OTAWriteDNN(d, "internet2")
			first := true
			d.OnProfileReload(func() {
				if first {
					first = false
					d.inner.Mdm.OverrideSessionDNN("internet")
				}
			})
		} else if otaHeal > 0 {
			tb.After(otaHeal, func() { tb.OTAFixDNN(d, "internet2") })
		}
	})
}

// replayStaleCPlaneDevice reproduces device-stale control-plane
// configuration (outdated PLMN/roaming state): the network rejects with
// the record's cause until the device refreshes its profile.
func (tb *Testbed) replayStaleCPlaneDevice(fc FailureCase, mode Mode) ReplayResult {
	return tb.measureFromBoot(mode, func(d *Device) {
		tb.InjectControlFailure(d, fc.CauseCode, InjectOpts{Count: -1})
		// The first profile load happens at boot (before the failure); a
		// *re*load afterwards models the refreshed configuration.
		loads := 0
		d.OnProfileReload(func() {
			loads++
			if loads > 1 {
				tb.ClearInjections(d)
			}
		})
	})
}

// replayStaleSlice reproduces the stale-everywhere control-plane config
// case mechanistically via network slicing: the subscription only allows
// SST 2, the device (SIM and modem) still requests SST 1. SEED delivers
// the suggested S-NSSAI; legacy waits for the operator OTA at heal.
func (tb *Testbed) replayStaleSlice(fc FailureCase, mode Mode) ReplayResult {
	return tb.measureFromBoot(mode, func(d *Device) {
		tb.RestrictSlice(d, 2)
		if fc.Heal > 0 {
			tb.After(fc.Heal, func() { tb.OTAFixSlice(d, 2) })
		}
	})
}

// replayUserAction reproduces unrecoverable cases: unauthorized subscriber
// (control plane) or expired plan (data plane). Recovery never happens;
// the interesting outcome is whether SEED notified the user.
func (tb *Testbed) replayUserAction(fc FailureCase, mode Mode) ReplayResult {
	d := tb.NewDevice(mode)
	if fc.ControlPlane {
		if sub, ok := tb.net.UDM.Subscriber(d.IMSI()); ok {
			sub.Authorized = false
		}
	} else {
		tb.ExpirePlan(d)
	}
	d.Start()
	tb.Advance(2 * time.Minute)
	res := ReplayResult{
		Recovered:          d.Connected(),
		UserActionRequired: true,
		UserNotified:       d.UserNoticeCount() > 0,
	}
	res.captureDevice(d)
	return res
}

// DeliveryReplayResult is the outcome of a data-delivery replay.
type DeliveryReplayResult struct {
	// Detected reports whether the failure was noticed at all (Android
	// stall or SEED report).
	Detected bool
	// DetectionLatency is onset → detection.
	DetectionLatency time.Duration
	// Recovered reports whether app traffic flowed again.
	Recovered bool
	// HandlingTime is detection → recovery (the Table 4 "Data Delivery"
	// metric: the paper measures handling after the failure is known).
	HandlingTime time.Duration
	// TotalDisruption is onset → recovery.
	TotalDisruption time.Duration
}

// ReplayDelivery reproduces one data-delivery failure with the paper's
// §7.1 traffic mix (background video, web browsing every 5 s, and the
// edge-AR reporter app) and the recommended Android action timers. The
// booted, warmed steady state comes from a cloned prototype.
func ReplayDelivery(dc DeliveryCase, mode Mode, seedVal int64) DeliveryReplayResult {
	tb, h, put := deliveryProtos.Proto(mode).Cell(seedVal)
	defer put()
	d := h.d
	if !d.Connected() {
		return DeliveryReplayResult{}
	}

	onset := tb.Now()
	// fixed reports whether the data connection itself works again — the
	// paper's recovery criterion ("recover the data connection"), decoupled
	// from app request cadence.
	var fixed func() bool
	hasBlock := func(proto uint8) bool { return tb.net.UPF.HasBlock(d.IMSI(), proto) }
	switch dc.Kind {
	case DeliveryTCPBlock:
		tb.BlockTCP(d)
		fixed = func() bool { return !hasBlock(6) && d.Connected() }
	case DeliveryUDPBlock:
		tb.BlockUDP(d)
		fixed = func() bool { return !hasBlock(17) && d.Connected() }
	case DeliveryDNSOutage:
		tb.SetDNSOutage(true)
		fixed = func() bool {
			return d.inner.DNSServer() == core5g.PublicDNSAddr && d.Connected()
		}
	case DeliveryStalledGateway:
		tb.StallGateway(d)
		fixed = func() bool { return !tb.net.UPF.Stalled(d.IMSI()) && d.Connected() }
	default:
		return DeliveryReplayResult{}
	}

	// Detection: the first Android stall or SEED report after onset —
	// from any app (the fast reporter is often the AR app, not the most
	// affected one).
	detected := time.Duration(-1)
	apps := h.apps[:]
	detect := func() bool {
		if d.inner.Mon.Stalled() {
			return true
		}
		if mode != ModeLegacy {
			for _, a := range apps {
				if _, _, _, reported := a.Requests(); reported > 0 {
					return true
				}
			}
		}
		return false
	}
	if tb.RunUntil(detect, 30*time.Minute) {
		detected = tb.Now() - onset
	} else {
		return DeliveryReplayResult{Detected: false}
	}

	// Recovery: the data connection works again.
	recovered := tb.RunUntil(fixed, 30*time.Minute)
	res := DeliveryReplayResult{
		Detected:         true,
		DetectionLatency: detected,
		Recovered:        recovered,
	}
	if recovered {
		res.TotalDisruption = tb.Now() - onset
		res.HandlingTime = res.TotalDisruption - detected
		if res.HandlingTime < 0 {
			res.HandlingTime = 0
		}
	}
	return res
}
