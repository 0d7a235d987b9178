// Package seed is a faithful software reproduction of "SEED: A SIM-Based
// Solution to 5G Failures" (Zhao et al., SIGCOMM 2022). It bundles a
// complete emulated 5G testbed — SIM/eSIM card runtime, modem with
// standard-compliant state machines and timers, Android-style data-stall
// detection and recovery, a gNB+AMF+SMF+UPF+UDM core network, application
// traffic emulators — together with SEED itself: the SIM applet, carrier
// app, core-network plugin, real-time SIM↔infrastructure collaboration
// channel, multi-tier reset actions, and collaborative online learning.
//
// Everything runs on a deterministic discrete-event clock: experiments
// that span hours of protocol time finish in milliseconds of wall time
// and are exactly reproducible for a given seed.
//
// The quickest way in:
//
//	tb := seed.New(1)
//	dev := tb.NewDevice(seed.ModeSEEDR)
//	dev.Start()
//	tb.Advance(30 * time.Second)       // device attaches, session up
//	tb.DesyncIdentity(dev)             // inject a Table-1 failure
//	tb.SimulateMobility(dev)           // ...that manifests on mobility
//	tb.Advance(time.Minute)            // SEED diagnoses and recovers
//
// Evaluation regenerates every table and figure of the paper's evaluation
// section through the Experiment functions; see EXPERIMENTS.md for the
// index.
package seed

import (
	"fmt"
	"time"

	"github.com/seed5g/seed/internal/android"
	"github.com/seed5g/seed/internal/core"
	"github.com/seed5g/seed/internal/core5g"
	"github.com/seed5g/seed/internal/dataplane"
	"github.com/seed5g/seed/internal/freelist"
	"github.com/seed5g/seed/internal/modem"
	"github.com/seed5g/seed/internal/nas"
	"github.com/seed5g/seed/internal/sched"
	"github.com/seed5g/seed/internal/sim"
)

// Mode selects a device's failure-handling stack.
type Mode = core.DeviceMode

const (
	// ModeLegacy is the baseline: stock modem timers plus the Android
	// detection/recovery ladder — no SEED.
	ModeLegacy = core.Legacy
	// ModeSEEDU runs SEED without root privilege (proactive-command and
	// carrier-app reset paths).
	ModeSEEDU = core.SEEDU
	// ModeSEEDR runs SEED with root privilege (AT-command fast paths).
	ModeSEEDR = core.SEEDR
)

// ParseMode maps the spec/CLI spelling of a mode ("legacy", "seed-u",
// "seed-r") to the Mode; ok is false for anything else.
func ParseMode(s string) (mode Mode, ok bool) { return core.ParseDeviceMode(s) }

// AppKind selects one of the five emulated application profiles (§7.1.2).
type AppKind = dataplane.AppKind

const (
	AppVideo      = dataplane.Video
	AppLiveStream = dataplane.LiveStream
	AppWeb        = dataplane.Web
	AppNavigation = dataplane.Navigation
	AppEdgeAR     = dataplane.EdgeAR
)

// AppKinds lists all five application profiles in Table 5 order.
var AppKinds = []AppKind{AppVideo, AppLiveStream, AppWeb, AppNavigation, AppEdgeAR}

// Testbed is the emulated testbed of Figure 10: one core network (with the
// SEED infrastructure plugin attached), an emulated internet, and any
// number of devices.
type Testbed struct {
	kern     *sched.Kernel
	net      *core5g.Network
	plugin   *core.InfraPlugin
	internet *dataplane.Internet

	carrierKey [16]byte
	devices    []*Device
	seq        int

	// rules are the spare reject rules addRule installs. A run's rules are
	// not put back: the restore hands the next run the spares the
	// snapshot saw. removeRuleFn is the heal event that removes its
	// argument, a *core5g.RejectRule.
	rules        freelist.List[core5g.RejectRule]
	removeRuleFn func(any)

	cells *core5g.Cells

	// missed is the tests' detector for a transition nobody announced: when
	// set, await reads its condition after every event, as RunUntil does,
	// and reports here when it turned true across an event that announced
	// nothing (and still returns at that instant, the polled one). It is a
	// plain field, so the next restore of a prototype clears it.
	missed func(at time.Duration)
}

// Instrument bundles the decision-trace subsystem's hooks: a tracer
// receiving structured Algorithm 1 decision events, a counterfactual
// action override, and the policy knobs (applet timers and trial order)
// RunWorkloadCell applies to the cell's device. A nil *Instrument is the
// zero-overhead TraceOff configuration.
type Instrument struct {
	// Tracer receives every decision event. Must be a pure observer: no
	// RNG, no state.
	Tracer core.DecisionTracer
	// Override is the counterfactual hook applied at each execution
	// decision (see core.ActionOverride).
	Override core.ActionOverride
	// Applet mutates the cell's SEED applet config before anything runs
	// (policy timers and trial order).
	Applet func(*core.AppletConfig)
}

// attach wires inst (nil: nothing) onto a restored cell. The tracer becomes
// the cell's observer, which the prototype removes on release; everything
// else is a field the applet reads only when it decides, so the cell
// behaves as one built instrumented, and the next restore clears it.
func (inst *Instrument) attach(tb *Testbed, d *Device) {
	if inst == nil {
		return
	}
	if inst.Tracer != nil {
		observeCell(tb, d, inst.Tracer)
	}
	applet := d.inner.Applet
	if applet == nil {
		return
	}
	if inst.Applet != nil {
		applet.UpdateConfig(inst.Applet)
	}
	applet.SetActionOverride(inst.Override)
}

// observeCell installs o as the observer of a restored cell, the one way a
// cell is observed. An observer that takes decisions is first handed the
// decisions of the device's boot (bootTrace): it reads the cell's history
// from power-on, as one installed before the boot did.
func observeCell(tb *Testbed, d *Device, o any) {
	tb.Observe(o)
	if tr, ok := o.(core.DecisionTracer); ok {
		for _, ev := range d.bootTrace {
			tr.Decision(ev)
		}
	}
}

// bootTracer observes a connected prototype's own boot into bootTrace, which
// observeCell replays.
type bootTracer struct{ d *Device }

func (b bootTracer) Decision(ev core.DecisionEvent) { b.d.bootTrace = append(b.d.bootTrace, ev) }

// New creates a testbed whose randomness derives from seed.
func New(seedVal int64) *Testbed {
	k := sched.New(seedVal)
	net := core5g.NewNetwork(k)
	tb := &Testbed{
		kern:     k,
		net:      net,
		plugin:   core.NewInfraPlugin(k, net),
		internet: dataplane.NewInternet(k, net),
	}
	copy(tb.carrierKey[:], "seed-carrier-key")
	tb.removeRuleFn = func(v any) { net.Inj.Remove(v.(*core5g.RejectRule)) }
	return tb
}

// Now returns the current virtual time.
func (tb *Testbed) Now() time.Duration { return tb.kern.Now() }

// Kernel exposes the testbed's event kernel for white-box tooling (the
// adversary engine quiesces the simulation and asserts the timer set
// drains). Production experiments should stay on Advance/RunUntil.
func (tb *Testbed) Kernel() *sched.Kernel { return tb.kern }

// Network exposes the emulated core network for white-box tooling: the
// adversary engine injects mutated uplink NAS at the AMF boundary and
// scrambles UE context to provoke out-of-state deliveries.
func (tb *Testbed) Network() *core5g.Network { return tb.net }

// Plugin exposes the infrastructure-side SEED plugin so white-box tooling
// can keep forwarding record uploads after wrapping a device's record
// sink.
func (tb *Testbed) Plugin() *core.InfraPlugin { return tb.plugin }

// Core exposes the device's internal assembly — modem, card, monitor,
// applet, radio — for white-box tooling that taps and injects below the
// public API.
func (d *Device) Core() *core.Device { return d.inner }

// Advance runs the simulation for d of virtual time.
func (tb *Testbed) Advance(d time.Duration) { tb.kern.RunFor(d) }

// RunUntil executes events until the predicate holds or the deadline
// passes, reading the predicate after every event. It reports whether the
// predicate was satisfied. This is the general form, for scripts: pred may be
// any function of the testbed. The experiments' own waits are conditions over
// state whose owners announce when it flips, and run on await, which reads
// its condition only after an event that announced something.
func (tb *Testbed) RunUntil(pred func() bool, deadline time.Duration) bool {
	return tb.run(pred, -1, deadline, true)
}

// await is RunUntil for a stop condition that is a pure function of
// announced state (sched.Transition lists it: stalls, app reports, UPF
// blocks and forwarding state, the modem's state and sessions, the resolver
// in use): it returns at the same virtual instant with the same result, and
// reads cond on entry, after each event that announced a transition, and once
// more at the deadline, instead of after every event.
func (tb *Testbed) await(cond func() bool, deadline time.Duration) bool {
	return tb.run(cond, -1, deadline, false)
}

// awaitAfter is await for "the clock has moved past after, and cond holds":
// what a wait that must not be satisfied by the state it starts in asks for.
// The clock crossing after is not announced; the loop watches for it.
func (tb *Testbed) awaitAfter(after time.Duration, cond func() bool, deadline time.Duration) bool {
	return tb.run(cond, after, deadline, false)
}

// run is the one body of RunUntil and await: step the kernel until
// Now() > after && cond(), the deadline, or an empty queue. An event past
// the deadline still runs when the clock was short of it, and the condition
// is read once more on the way out. cond is read between events — never
// inside the call that announces a transition, where the state is half
// changed — and, unless everyEvent, only when it can have changed: on entry,
// once the clock has passed after, and after a step that announced something.
func (tb *Testbed) run(cond func() bool, after, deadline time.Duration, everyEvent bool) bool {
	k := tb.kern
	limit := k.Now() + deadline
	audited := !everyEvent && tb.missed != nil
	due := true // cond has not been read since it last may have changed
	for k.Now() < limit {
		if (due || everyEvent || audited) && k.Now() > after {
			if cond() {
				if !due && audited {
					tb.missed(k.Now())
				}
				return true
			}
			due = false
		}
		announced := k.Announced()
		if !k.Step() {
			break
		}
		if k.Announced() != announced {
			due = true
		}
	}
	return k.Now() > after && cond()
}

// After schedules fn at virtual-time offset d (for scripting scenarios).
func (tb *Testbed) After(d time.Duration, fn func()) { tb.kern.After(d, fn) }

// Devices returns a copy of the devices created so far.
func (tb *Testbed) Devices() []*Device { return append([]*Device(nil), tb.devices...) }

// CoreSignalingLoad returns the total NAS messages the core processed.
func (tb *Testbed) CoreSignalingLoad() int { return tb.net.SignalingLoad() }

// EnableCells turns the testbed into an n-cell deployment sharing one
// core. contextLossProb is the chance a handover's context transfer fails
// (producing the §2 identity-desync failures). Call before creating
// devices.
func (tb *Testbed) EnableCells(n int, contextLossProb float64) {
	if tb.cells == nil {
		tb.cells = core5g.NewCells(tb.kern, tb.net, n)
	}
	tb.cells.ContextLossProb = contextLossProb
}

// SetEdgeContextLoss overrides the handover context-loss probability for
// the directed cell edge from → to (call after EnableCells). Edges
// without an override keep the global probability.
func (tb *Testbed) SetEdgeContextLoss(from, to int, p float64) {
	if tb.cells != nil {
		tb.cells.SetEdgeContextLoss(from, to, p)
	}
}

// ServingCell returns the cell currently serving the device (0 before
// EnableCells or any handover).
func (tb *Testbed) ServingCell(d *Device) int {
	if tb.cells == nil {
		return 0
	}
	return tb.cells.ServingCell(d.IMSI())
}

// Handover moves the device to the target cell and triggers its mobility
// registration in the new tracking area. With forceContextLoss (or per
// the configured probability) the core loses the UE context in transit.
// It reports whether the context transfer survived.
func (tb *Testbed) Handover(d *Device, cell int, forceContextLoss bool) bool {
	if tb.cells == nil {
		return false
	}
	okHO, err := tb.cells.Handover(d.IMSI(), cell, forceContextLoss)
	if err != nil {
		return false
	}
	d.inner.Mdm.SimulateMobility()
	return okHO
}

// Handovers returns (handovers performed, context transfers lost).
func (tb *Testbed) Handovers() (int, int) {
	if tb.cells == nil {
		return 0, 0
	}
	return tb.cells.Stats()
}

// DeviceOption customizes a device at creation.
type DeviceOption func(*core.DeviceConfig)

// WithAndroidRecommendedTimers applies the 21 s/6 s/16 s recovery-action
// intervals the paper uses as its tuned baseline.
func WithAndroidRecommendedTimers() DeviceOption {
	return func(c *core.DeviceConfig) {
		c.Android.ActionIntervals = android.RecommendedConfig().ActionIntervals
	}
}

// WithStaleDNN makes the device's SIM profile carry dnn instead of the
// subscription default (the outdated-configuration failure injections).
func WithStaleDNN(dnn string) DeviceOption {
	return func(c *core.DeviceConfig) { c.Profile.DNN = dnn }
}

// WithProactiveAT enables the §9 rootless-SEED-R extension: the modem
// supports the TS 102 223 RUN AT COMMAND proactive command, so a SEED-U
// device can drive the fast B-tier resets without root on the phone.
func WithProactiveAT() DeviceOption {
	return func(c *core.DeviceConfig) { c.Applet.UseProactiveAT = true }
}

// NewDevice provisions a subscriber and builds a device of the given mode
// attached to the testbed network. The subscription's default DNN is
// "internet" with the carrier LDNS.
func (tb *Testbed) NewDevice(mode Mode, opts ...DeviceOption) *Device {
	tb.seq++
	imsi := fmt.Sprintf("310170%09d", tb.seq)
	var k, op [16]byte
	copy(k[:], imsi+"-key-material-")
	copy(op[:], "seed-operator-op")

	sub := &core5g.Subscriber{
		IMSI: imsi, K: k, OP: op,
		Authorized: true, PlanActive: true,
		SEEDEnabled: mode != ModeLegacy,
		DefaultDNN:  "internet",
		AllowedDNNs: []string{"internet", "ims"},
		Sessions: map[string]core5g.SessionConfig{
			"internet": {DNS: []nas.Addr{core5g.LDNSAddr}, QoS: nas.QoS{FiveQI: 9, UplinkKbps: 100000, DownKbps: 500000}},
			"ims":      {DNS: []nas.Addr{core5g.LDNSAddr}, QoS: nas.QoS{FiveQI: 5}},
		},
	}
	if err := tb.net.UDM.AddSubscriber(sub); err != nil {
		panic(fmt.Sprintf("seed: provisioning %s: %v", imsi, err))
	}
	tb.plugin.Provision(imsi)

	cfg := core.DefaultDeviceConfig(imsi, sim.Profile{
		IMSI: imsi, K: k, OP: op,
		PLMNs: []uint32{modem.ServingPLMN},
		DNN:   "internet",
		DNS:   [][4]byte{core5g.LDNSAddr},
		SST:   1,
	}, tb.carrierKey, mode)
	for _, opt := range opts {
		opt(&cfg)
	}
	inner, err := core.NewDevice(tb.kern, cfg, tb.net)
	if err != nil {
		panic(fmt.Sprintf("seed: building device %s: %v", imsi, err))
	}
	// Default OTA record destination: the in-process infrastructure
	// plugin. A fleet deployment replaces this sink with a networked
	// carrier-service client (internal/fleet) — same upload code path.
	inner.CApp.SetRecordSink(func(blob []byte) {
		_ = tb.plugin.ReceiveRecordUpload(blob)
	})
	if tb.cells != nil {
		// Re-home the radio through the cell manager: uplink goes to the
		// serving gNB of the moment, and handovers re-attach the
		// downlink transparently.
		tb.net.GNB.DetachUE(imsi)
		tb.cells.Register(imsi, inner.Radio.B2A.Send)
		inner.Radio.SetHandlers(func(frame any) {
			tb.cells.ServingGNB(imsi).HandleUplink(frame)
		}, inner.Mdm.HandleDownlink)
	}
	d := &Device{tb: tb, inner: inner}
	d.onRejectFn, d.onReloadFn = d.onReject, d.onReload
	tb.devices = append(tb.devices, d)
	return d
}

// Device is one emulated handset on the testbed.
type Device struct {
	tb        *Testbed
	inner     *core.Device
	apps      []*App // in AddApp order
	bootTrace []core.DecisionEvent

	// rejectSubs are the OnReject hooks and the cell's own reject
	// subscriptions, reloadHooks the OnProfileReload hooks, each in
	// registration order; while there is one, the inner device's hook of
	// that kind is onRejectFn or onReloadFn, stored at construction. onset
	// is the instant of the first reject an onset subscription saw (-1
	// before it).
	rejectSubs  []rejectSub
	reloadHooks []func()
	onRejectFn  func(epd byte, code uint8)
	onReloadFn  func()
	onset       time.Duration
}

// rejectSub is one subscription to the device's rejects: a registered
// hook, or one of the cell's own, which cost no closure.
type rejectSub struct {
	kind subKind
	fn   func(controlPlane bool, code uint8) // subHook
	rule *core5g.RejectRule                  // subHeal: removed heal after the first reject
	heal time.Duration
}

type subKind uint8

const (
	subHook  subKind = iota // call fn
	subHeal                 // start rule's heal on the first reject
	subOnset                // stamp the first reject's instant as the onset
)

func (d *Device) subscribeReject(s rejectSub) {
	d.rejectSubs = append(d.rejectSubs, s)
	d.inner.OnReject = d.onRejectFn
}

// onReject dispatches a reject to the subscriptions made before it.
func (d *Device) onReject(epd byte, code uint8) {
	for i, n := 0, len(d.rejectSubs); i < n; i++ {
		switch s := &d.rejectSubs[i]; s.kind {
		case subHook:
			s.fn(epd == nas.EPD5GMM, code)
		case subHeal:
			if s.rule != nil {
				d.tb.kern.AfterArg(s.heal, d.tb.removeRuleFn, s.rule)
				s.rule = nil
			}
		case subOnset:
			if d.onset < 0 {
				d.onset = d.tb.Now()
			}
		}
	}
}

// onReload calls the hooks registered before a profile reload.
func (d *Device) onReload() {
	for _, fn := range d.reloadHooks {
		fn()
	}
}

// warmSubs is the room warm makes for a cell's subscriptions.
const warmSubs = 4

// warm makes room for a cell's subscriptions ahead of a prototype snapshot.
func (d *Device) warm() {
	if cap(d.rejectSubs) == 0 {
		d.rejectSubs, d.reloadHooks = make([]rejectSub, 0, warmSubs), make([]func(), 0, warmSubs)
	}
	d.inner.Warm()
}

// IMSI returns the device's subscriber identity.
func (d *Device) IMSI() string { return d.inner.Cfg.IMSI }

// Mode returns the device's failure-handling mode.
func (d *Device) Mode() Mode { return d.inner.Cfg.Mode }

// Start powers the device on; it registers and establishes its data
// session autonomously.
func (d *Device) Start() { d.inner.Start() }

// Connected reports whether the device has a working data session.
func (d *Device) Connected() bool { return d.inner.Connected() }

// Registered reports whether the modem is registered.
func (d *Device) Registered() bool {
	return d.inner.Mdm.State() == modem.StateRegistered
}

// State returns the modem's 5GMM state name.
func (d *Device) State() string { return d.inner.Mdm.State().String() }

// The On* hooks accumulate: every registered hook fires, in registration
// order, on every event. A prototype restore rewinds them with the rest of
// the device.

// OnReject registers a hook fired with every standardized reject cause
// the device receives; controlPlane distinguishes 5GMM from 5GSM causes.
func (d *Device) OnReject(fn func(controlPlane bool, code uint8)) {
	d.subscribeReject(rejectSub{kind: subHook, fn: fn})
}

// OnProfileReload registers a hook fired whenever the modem (re)reads the
// SIM profile.
func (d *Device) OnProfileReload(fn func()) {
	d.reloadHooks = append(d.reloadHooks, fn)
	d.inner.OnProfileReload = d.onReloadFn
}

// AddApp installs an application traffic emulator.
func (d *Device) AddApp(kind AppKind) *App {
	a := &App{inner: d.inner.AddApp(kind)}
	d.apps = append(d.apps, a)
	return a
}

// Reboot power-cycles the modem.
func (d *Device) Reboot() { d.inner.Mdm.Reboot() }

// FastDataReset runs the Fig 6 data-plane reset directly (a DIAG session
// holds the radio bearer while the data session cycles; no reattach).
func (d *Device) FastDataReset() { d.inner.CApp.FastDataReset() }

// RunAT executes an AT command on the modem (for scripting; SEED-R uses
// this path internally).
func (d *Device) RunAT(cmd string) (string, error) { return d.inner.Mdm.Execute(cmd) }

// SIMOperations returns the total SIM operations performed (the energy
// model input).
func (d *Device) SIMOperations() int {
	st := d.inner.Card.Stats()
	return st.APDUs + st.AuthOps + st.Envelopes + st.Proactives
}

// DiagnosesReceived returns how many SEED diagnosis messages the SIM
// applet consumed (0 in legacy mode).
func (d *Device) DiagnosesReceived() int {
	if d.inner.Applet == nil {
		return 0
	}
	return d.inner.Applet.Stats().DiagsReceived
}

// Decisions returns how many Algorithm 1 execution decisions the applet
// made — the counterfactual pin space (0 in legacy mode).
func (d *Device) Decisions() int {
	if d.inner.Applet == nil {
		return 0
	}
	return d.inner.Applet.Decisions()
}

// ActionCounts returns the multi-tier reset actions executed, keyed by
// action name (empty in legacy mode).
func (d *Device) ActionCounts() map[string]int {
	if out := d.actionCounts(); out != nil {
		return out
	}
	return map[string]int{}
}

// actionCounts is ActionCounts with nil for no action.
func (d *Device) actionCounts() map[string]int {
	var out map[string]int
	if d.inner.Applet != nil {
		d.inner.Applet.RangeActions(func(a core.ActionID, n int) {
			if out == nil {
				out = make(map[string]int)
			}
			out[a.String()] = n
		})
	}
	return out
}

// UserNoticeCount returns how many user-action notifications SEED raised.
func (d *Device) UserNoticeCount() int {
	if d.inner.Applet == nil {
		return 0
	}
	return d.inner.Applet.Stats().UserNotices
}

// Reboots returns the modem reboot count (legacy ladder escalations and
// SEED B1 resets).
func (d *Device) Reboots() int { return d.inner.Mdm.Stats().Reboots }

// App is an application traffic emulator bound to a device.
type App struct {
	inner *dataplane.App
}

// Kind returns the application profile.
func (a *App) Kind() AppKind { return a.inner.Spec().Kind }

// Start begins traffic generation.
func (a *App) Start() { a.inner.Start() }

// Stop halts traffic generation.
func (a *App) Stop() { a.inner.Stop() }

// LastSuccess returns the virtual time of the last successful response
// (negative before any).
func (a *App) LastSuccess() time.Duration { return a.inner.LastSuccess() }

// Requests returns (sent, succeeded, failed, reported) counters.
func (a *App) Requests() (sent, ok, failed, reported int) {
	st := a.inner.Stats()
	return st.Requests, st.Successes, st.Failures, st.Reports
}
