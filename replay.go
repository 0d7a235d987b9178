package seed

import (
	"time"

	"github.com/seed5g/seed/internal/core5g"
	"github.com/seed5g/seed/internal/workload"
)

// ReplayResult is the outcome of reproducing one failure case on the
// testbed.
type ReplayResult = workload.Outcome

// captureDevice fills the result's device-side counters.
func captureDevice(r *ReplayResult, d *Device) {
	r.Actions = d.actionCounts()
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
// service disruption the way §7.1.1 does: the dataset-row vocabulary of
// runCell, with no RF profile, walk or instrument.
func ReplayManagement(fc FailureCase, mode Mode, seedVal int64) ReplayResult {
	return runCell(caseCellRun(fc), mode, seedVal)
}

// caseCellRun translates a dataset row into runCell's description.
func caseCellRun(fc FailureCase) cellRun {
	return cellRun{controlPlane: fc.ControlPlane, code: fc.CauseCode, scenario: fc.Scenario, heal: fc.Heal}
}

// cellRun is the whole description of one management or mobility cell.
type cellRun struct {
	// controlPlane, code, scenario and heal are the failure (ignored when
	// graph is set: a walk's failure is its forced-loss handover).
	controlPlane bool
	code         uint8
	scenario     FailureScenario
	heal         time.Duration
	// jitter, loss and partitions are the RF profile: uniform per-frame
	// jitter for the whole cell plus scheduled impairment windows.
	jitter     time.Duration
	loss       []workload.LossWindow
	partitions []workload.PartitionWindow
	// graph, hops and lossyHop are the optional mobility walk: the device
	// walks hops over graph and the handover at lossyHop forcibly loses the
	// context transfer, with the following hop racing the recovery.
	graph    *workload.CellGraph
	hops     []workload.Hop
	lossyHop int
	// inst optionally attaches decision tracing, counterfactual overrides
	// and policy knobs (nil is the plain TraceOff path).
	inst *Instrument
}

// runCell runs a management or mobility cell: the trial of the cell's steady
// state and its measure. A desync's failure manifests after a clean boot, so
// its cell starts from the shared connected steady state (bareSteady). Every
// other cell injects before the device ever starts, so it starts built but
// unstarted (coldSteady): the start is inside its measured window, the
// construction, the same for every cell, is shared.
func runCell(c cellRun, mode Mode, seedVal int64) ReplayResult {
	return trial[ReplayResult]{c.from(mode), c.measure}.run(seedVal)
}

// from returns the steady state the cell starts from.
func (c *cellRun) from(mode Mode) steady {
	switch {
	case c.graph != nil:
		return coldSteady(mode, c.graph.N)
	case c.scenario == ScenarioDesync:
		return bareSteady(mode)
	default:
		return coldSteady(mode, 0)
	}
}

// measure runs the cell on its restored prototype (or, in the equivalence
// tests, on a freshly built testbed): instrument, RF profile, scenario body.
func (c *cellRun) measure(tb *Testbed, d *Device) ReplayResult {
	if c.graph != nil {
		// Plain fields of the prototype's cell manager: the next restore clears them.
		tb.EnableCells(c.graph.N, c.graph.DefaultContextLoss)
		for _, e := range c.graph.Edges {
			tb.SetEdgeContextLoss(e.From, e.To, e.ContextLoss)
		}
	}
	c.inst.attach(tb, d)

	// The RF profile starts at the restore instant (the next restore rewinds
	// the link and the window timers with everything else).
	radio := d.inner.Radio
	if c.jitter > 0 {
		radio.SetJitter(c.jitter)
	}
	for _, w := range c.loss {
		tb.armRFWindow(w.AtSec, w.DurSec, func() { radio.SetLoss(w.Loss) }, func() { radio.SetLoss(0) })
	}
	for _, w := range c.partitions {
		tb.armRFWindow(w.AtSec, w.DurSec, func() { radio.SetDown(true) }, func() { radio.SetDown(false) })
	}

	if c.graph != nil {
		return tb.replayWalk(d, c.hops, c.lossyHop)
	}
	switch c.scenario {
	case ScenarioDesync:
		return replayDesyncOn(tb, d)
	case ScenarioTransient, ScenarioSilent:
		return tb.replayInjected(d, c)
	case ScenarioStaleConfigDevice:
		if c.controlPlane {
			return tb.replayStaleCPlaneDevice(d, c.code)
		}
		return tb.replayStaleDNN(d, true, 0)
	case ScenarioStaleConfigEverywhere:
		if c.controlPlane {
			return tb.replayStaleSlice(d, c.heal)
		}
		return tb.replayStaleDNN(d, false, c.heal)
	case ScenarioUserAction:
		return tb.replayUserAction(d, c.controlPlane)
	default:
		return ReplayResult{}
	}
}

// armRFWindow schedules one radio-impairment window relative to the
// current virtual time. Windows close back to a healthy link; overlapping
// windows are not merged — the last transition wins, matching the
// declarative spec's validated non-overlapping windows.
func (tb *Testbed) armRFWindow(atSec, durSec float64, open, shut func()) {
	at := time.Duration(atSec * float64(time.Second))
	tb.kern.After(at, open)
	tb.kern.After(at+time.Duration(durSec*float64(time.Second)), shut)
}

// measureFromBoot starts the (not yet started) device, detects failure
// onset (first reject seen, or the first failed attach attempt for silent
// cases), and measures until connectivity. prep runs before Start.
func (tb *Testbed) measureFromBoot(d *Device, prep func()) ReplayResult {
	d.onset = -1
	d.subscribeReject(rejectSub{kind: subOnset})
	prep()
	d.Start()
	connected := tb.await(d.Connected, replayWindow)
	onset := d.onset
	if onset < 0 {
		// Silent case (or none manifested): onset is the nominal first
		// procedure instant — boot + profile read + list search.
		onset = 1140 * time.Millisecond
	}
	res := ReplayResult{UserNotified: d.UserNoticeCount() > 0}
	captureDevice(&res, d)
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
func (tb *Testbed) replayInjected(d *Device, c *cellRun) ReplayResult {
	return tb.measureFromBoot(d, func() {
		o := InjectOpts{Count: -1, HealAfter: c.heal, Silent: c.scenario == ScenarioSilent}
		if c.controlPlane {
			tb.InjectControlFailure(d, c.code, o)
		} else {
			tb.InjectDataFailure(d, c.code, o)
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
	// Let the clock move so the connectivity drop registers, then wait for
	// recovery.
	recovered := tb.awaitAfter(onset, d.Connected, replayWindow)
	res := ReplayResult{Recovered: recovered}
	captureDevice(&res, d)
	if recovered {
		res.Disruption = tb.Now() - onset
	}
	return res
}

// replayWalk connects the device on a multi-cell testbed, walks it through
// the handovers, and measures the disruption from the forced context-loss
// handover until data connectivity returns. Hops before the lossy one may
// also lose context per the graph's (per-edge) probabilities — that is the
// point of the knob. The hop after the lossy one races the recovery:
// either the re-registration itself (handover-desync) or SEED's in-flight
// diagnosis (tau-race), depending on its dwell.
func (tb *Testbed) replayWalk(d *Device, hops []workload.Hop, lossyHop int) ReplayResult {
	var res ReplayResult
	d.Start()
	if !tb.await(d.Connected, connectDeadline) {
		res.Handovers, res.ContextLoss = tb.Handovers()
		return res
	}
	onset := time.Duration(-1)
	for i, hop := range hops {
		tb.Advance(hop.Dwell)
		tb.Handover(d, hop.To, i == lossyHop)
		if i == lossyHop {
			onset = tb.Now()
		}
	}
	res.Recovered = tb.await(d.Connected, replayWindow)
	res.Handovers, res.ContextLoss = tb.Handovers()
	res.UserNotified = d.UserNoticeCount() > 0
	captureDevice(&res, d)
	if res.Recovered && onset >= 0 {
		res.Disruption = tb.Now() - onset
		if res.Disruption < 0 {
			res.Disruption = 0
		}
	}
	return res
}

// replayStaleDNN reproduces the outdated-APN failure: the subscription
// uses "internet2", the modem cache still says "internet". With simHasNew
// the SIM was OTA-updated (a reload fixes it); otherwise the stale value
// is everywhere and the operator's OTA repair lands only at otaHeal.
func (tb *Testbed) replayStaleDNN(d *Device, simHasNew bool, otaHeal time.Duration) ReplayResult {
	return tb.measureFromBoot(d, func() {
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
func (tb *Testbed) replayStaleCPlaneDevice(d *Device, code uint8) ReplayResult {
	return tb.measureFromBoot(d, func() {
		tb.InjectControlFailure(d, code, InjectOpts{Count: -1})
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
func (tb *Testbed) replayStaleSlice(d *Device, heal time.Duration) ReplayResult {
	return tb.measureFromBoot(d, func() {
		tb.RestrictSlice(d, 2)
		if heal > 0 {
			tb.After(heal, func() { tb.OTAFixSlice(d, 2) })
		}
	})
}

// replayUserAction reproduces unrecoverable cases: unauthorized subscriber
// (control plane) or expired plan (data plane). Recovery never happens;
// the interesting outcome is whether SEED notified the user.
func (tb *Testbed) replayUserAction(d *Device, controlPlane bool) ReplayResult {
	if controlPlane {
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
	captureDevice(&res, d)
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
	return deliveryTrial(dc, mode).run(seedVal)
}

// deliveryTrial is one delivery replay: deliverySteady measured by
// replayDeliveryOn.
func deliveryTrial(dc DeliveryCase, mode Mode) trial[DeliveryReplayResult] {
	return trial[DeliveryReplayResult]{deliverySteady(mode), func(tb *Testbed, d *Device) DeliveryReplayResult {
		return replayDeliveryOn(tb, d, dc)
	}}
}

// replayDeliveryOn injects the delivery failure into a warmed steady state
// (from a cloned or fresh boot) and measures detection and recovery.
func replayDeliveryOn(tb *Testbed, d *Device, dc DeliveryCase) DeliveryReplayResult {
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
	detect := func() bool {
		if d.inner.Mon.Stalled() {
			return true
		}
		if d.Mode() != ModeLegacy {
			for _, a := range d.apps {
				if _, _, _, reported := a.Requests(); reported > 0 {
					return true
				}
			}
		}
		return false
	}
	if tb.await(detect, 30*time.Minute) {
		detected = tb.Now() - onset
	} else {
		return DeliveryReplayResult{Detected: false}
	}

	// Recovery: the data connection works again.
	recovered := tb.await(fixed, 30*time.Minute)
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
