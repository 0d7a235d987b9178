package adversary

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"github.com/seed5g/seed"
	"github.com/seed5g/seed/internal/cause"
	"github.com/seed5g/seed/internal/core"
	"github.com/seed5g/seed/internal/crypto5g"
	"github.com/seed5g/seed/internal/nas"
	"github.com/seed5g/seed/internal/radio"
	"github.com/seed5g/seed/internal/sim"
)

// Phase lengths of a case, in virtual time. Warmup must cover a full
// attach (registration, authentication, session establishment) so every
// tap pool is populated before mutations draw from it; the quiesce grace
// exceeds the longest one-shot protocol timer (T3502, 12 min) with margin
// so "timers drain" is a real liveness assertion, not a race.
const (
	warmupPhase    = 30 * time.Second
	stimulusPhase  = 10 * time.Second
	mutationWindow = 20 * time.Second
	mutationPhase  = 25 * time.Second
	healPhase      = 5 * time.Second
	quiesceGrace   = 45 * time.Minute
)

// Violation is one invariant breach observed while executing a case.
type Violation struct {
	// Invariant names the broken property (stable identifiers: no-panic,
	// modem-state, timers-drain, tier-privilege, envelope-tamper,
	// envelope-replay, fleet-integrity).
	Invariant string `json:"invariant"`
	// Detail is a human-readable account of the breach.
	Detail string `json:"detail"`
}

// Result is the deterministic outcome of executing one case.
type Result struct {
	Index      int         `json:"index"`
	Case       Case        `json:"case"`
	Violations []Violation `json:"violations,omitempty"`
	// Applied/Skipped count mutations that found a non-empty pool vs not.
	Applied int `json:"applied"`
	Skipped int `json:"skipped"`
	// Pool sizes at the end of the run (tap coverage telemetry).
	PoolNASDown int `json:"pool_nas_down"`
	PoolNASUp   int `json:"pool_nas_up"`
	PoolAPDU    int `json:"pool_apdu"`
	PoolFleet   int `json:"pool_fleet"`
}

func (r *Result) violate(invariant, format string, args ...any) {
	r.Violations = append(r.Violations, Violation{invariant, fmt.Sprintf(format, args...)})
}

// recorder accumulates the tapped legitimate traffic pools. It is the
// testbed's observer for the NAS and APDU boundaries: NAS frames are
// re-marshaled from the decoded message (canonical wire bytes), APDUs are
// captured in wire form.
type recorder struct {
	nasDown [][]byte
	nasUp   [][]byte
	apdu    [][]byte
	fleet   [][]byte
}

// NAS implements modem.NASObserver.
func (rec *recorder) NAS(_ string, sent bool, msg nas.Message) {
	if sent {
		rec.nasUp = append(rec.nasUp, nas.Marshal(msg))
	} else {
		rec.nasDown = append(rec.nasDown, nas.Marshal(msg))
	}
}

// APDU implements modem.APDUObserver.
func (rec *recorder) APDU(_ string, cmd sim.Command, _ sim.Response) {
	if b, err := cmd.AppendBytes(nil); err == nil {
		rec.apdu = append(rec.apdu, b)
	}
}

func (rec *recorder) pool(ch Channel) [][]byte {
	switch ch {
	case ChanNASDown:
		return rec.nasDown
	case ChanNASUp:
		return rec.nasUp
	case ChanAPDU:
		return rec.apdu
	default:
		return rec.fleet
	}
}

// caseHandles are the boot products of a case prototype: the warmed-up
// device plus the recorder wired into its taps.
type caseHandles struct {
	dev *seed.Device
	rec *recorder
}

// caseKey selects a prototype family member: cases differing only in
// seed/stimulus/mutations share a booted steady state.
type caseKey struct {
	Mode uint8
	Opts uint8
}

// caseProtos boots one warmed, fully tapped testbed per (mode, opts)
// combination. The recorder's pools are part of the snapshot (the boot-time
// traffic restores with everything else), so cloned cases start from
// identical tapped traffic; its place as the observer is not, and Execute
// installs it again on every cell.
var caseProtos = seed.NewProtoMap(func(k caseKey) func(*seed.Testbed) caseHandles {
	return func(tb *seed.Testbed) caseHandles {
		var opts []seed.DeviceOption
		if k.Opts&OptProactiveAT != 0 {
			opts = append(opts, seed.WithProactiveAT())
		}
		if k.Opts&OptRecommendedTimers != 0 {
			opts = append(opts, seed.WithAndroidRecommendedTimers())
		}
		dev := tb.NewDevice(seed.Mode(k.Mode), opts...)
		cd := dev.Core()

		// Tap the three live boundaries: NAS and APDUs through the observer,
		// record-sink blobs on their way to the infrastructure plugin.
		rec := &recorder{}
		tb.Observe(rec)
		cd.CApp.SetRecordSink(func(blob []byte) {
			rec.fleet = append(rec.fleet, append([]byte(nil), blob...))
			_ = tb.Plugin().ReceiveRecordUpload(blob)
		})

		dev.Start()
		tb.Advance(warmupPhase)
		return caseHandles{dev: dev, rec: rec}
	}
})

// Execute runs one case to completion and reports every invariant breach.
// The booted, tapped steady state comes from a cloned prototype (per
// mode/opts combination); each worker restores its own pooled instance,
// so concurrent Executes stay independent.
func Execute(c Case) (res Result) {
	res.Case = c
	defer func() {
		if r := recover(); r != nil {
			res.violate("no-panic", "panic: %v", r)
		}
	}()

	tb, h, put := caseProtos.Proto(caseKey{Mode: c.Mode, Opts: c.Opts}).Cell(c.Seed)
	defer put()
	dev, rec := h.dev, h.rec
	tb.Observe(rec)
	cd := dev.Core()
	imsi := dev.IMSI()

	applyStimulus(tb, dev, c.Stimulus)
	tb.Advance(stimulusPhase)

	for _, m := range c.Mutations {
		m := m
		if m.Channel == ChanFleet {
			continue // fleet mutations run offline in the invariant phase
		}
		tb.After(time.Duration(m.AtMS)*time.Millisecond%mutationWindow, func() {
			inject(tb, cd, imsi, rec, m, &res)
		})
	}
	tb.Advance(mutationPhase)

	// Heal every injected condition, then quiesce: detection tickers off,
	// modem down, and a grace window long enough for every one-shot timer
	// to fire or be cancelled.
	tb.ClearInjections(dev)
	tb.ReactivatePlan(dev)
	tb.UnblockAll(dev)
	tb.SetDNSOutage(false)
	// Pull whatever learning records the campaign produced through the
	// record sink, populating the fleet tap pool with real sealed blobs.
	cd.CApp.UploadRecords()
	tb.Advance(healPhase)
	cd.Mon.Stop()
	cd.Mdm.PowerOff()
	tb.Advance(quiesceGrace)

	checkInvariants(tb, dev, rec, c, &res)
	res.PoolNASDown, res.PoolNASUp = len(rec.nasDown), len(rec.nasUp)
	res.PoolAPDU, res.PoolFleet = len(rec.apdu), len(rec.fleet)
	return res
}

// applyStimulus drives one legitimate Table-1-style failure so mutations
// interleave with live diagnosis and recovery traffic.
func applyStimulus(tb *seed.Testbed, dev *seed.Device, stim uint8) {
	switch stim {
	case StimControlReject:
		tb.InjectControlFailure(dev, uint8(cause.MMPLMNNotAllowed), seed.InjectOpts{Count: 1})
		tb.SimulateMobility(dev)
	case StimDataReject:
		tb.InjectDataFailure(dev, uint8(cause.SMInsufficientResources), seed.InjectOpts{Count: 1})
		tb.ReleaseSessions(dev)
	case StimDesync:
		tb.DesyncIdentity(dev)
		tb.SimulateMobility(dev)
	case StimPlanExpired:
		tb.ExpirePlan(dev)
	case StimUnknownCause:
		// A cause code outside the standardized table: the plugin answers
		// DiagUnknown and the applet runs the Algorithm-1 trial sequence,
		// producing the learning records the fleet tap records on upload.
		tb.InjectDataFailure(dev, 200, seed.InjectOpts{Count: 1})
		tb.ReleaseSessions(dev)
	}
}

// inject applies one mutation to its channel's recorded pool and delivers
// the result into the running testbed.
func inject(tb *seed.Testbed, cd *core.Device, imsi string, rec *recorder, m Mutation, res *Result) {
	pool := rec.pool(m.Channel)
	if len(pool) == 0 {
		res.Skipped++
		return
	}
	orig := pool[int(m.Pick)%len(pool)]
	deliver := func(b []byte) {
		switch m.Channel {
		case ChanNASDown:
			cd.Mdm.HandleDownlink(radio.DownlinkNAS{UE: imsi, Bytes: b})
		case ChanNASUp:
			tb.Network().AMF.HandleUplinkNAS(imsi, b)
		case ChanAPDU:
			// Straight into the card, past the modem's relay and so past
			// the observer: the pool grows by what is re-injected too.
			if cmd, err := sim.ParseCommand(b); err == nil {
				rec.APDU(imsi, cmd, cd.Card.Process(cmd))
			}
		}
	}
	res.Applied++
	switch m.Op {
	case OpBitFlip, OpLenLie, OpTruncate:
		deliver(Mutate(orig, m.Op, m.Param))
	case OpDuplicate:
		deliver(orig)
		deliver(orig)
	case OpReplayStale:
		deliver(orig)
	case OpOutOfState:
		scramble(tb, cd, imsi, m.Param)
		deliver(orig)
	}
}

// Mutate applies a byte-level op to a copy of frame. Exported so the fleet
// offline pipeline and the minimizer tests share the exact transform.
func Mutate(frame []byte, op Op, param uint32) []byte {
	b := append([]byte(nil), frame...)
	if len(b) == 0 {
		return b
	}
	switch op {
	case OpBitFlip:
		bit := int(param) % (len(b) * 8)
		b[bit/8] ^= 1 << (bit % 8)
	case OpLenLie:
		b[int(param)%len(b)] = byte(param >> 8)
	case OpTruncate:
		b = b[:int(param)%len(b)]
	}
	return b
}

// scramble forces the stack out of the state the recorded frame belongs
// to, so the subsequent delivery is an out-of-state event (e.g. a 5GSM
// reject while 5GMM is DEREGISTERED).
func scramble(tb *seed.Testbed, cd *core.Device, imsi string, param uint32) {
	switch param % 4 {
	case 0:
		tb.Network().AMF.DropUEContext(imsi)
	case 1:
		tb.Network().AMF.DesyncIdentity(imsi)
	case 2:
		cd.Mdm.Deregister()
	case 3:
		cd.Mdm.PowerOff()
	}
}

// checkInvariants asserts the reusable invariant set after quiesce.
func checkInvariants(tb *seed.Testbed, dev *seed.Device, rec *recorder, c Case, res *Result) {
	cd := dev.Core()

	// The modem FSM must sit in a legal TS 24.501 state with coherent
	// volatile state (sessions, pending traffic, security context).
	if err := cd.Mdm.CheckInvariants(); err != nil {
		res.violate("modem-state", "%v", err)
	}

	// Every timer must have drained: nothing may keep the kernel alive
	// after the device is off and the grace window has passed.
	if n := tb.Kernel().Pending(); n != 0 {
		res.violate("timers-drain", "%d events still pending after quiesce", n)
	}

	// SEED must never execute a recovery tier above its privilege: a
	// SEED-U device without the proactive-AT extension has no path to the
	// root-only B tier, no matter what was injected.
	if seed.Mode(c.Mode) == seed.ModeSEEDU && c.Opts&OptProactiveAT == 0 && cd.Applet != nil {
		st := cd.Applet.Stats()
		ids := make([]core.ActionID, 0, len(st.Actions))
		for id := range st.Actions {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			if id.RequiresRoot() && st.Actions[id] > 0 {
				res.violate("tier-privilege", "rootless SEED-U executed %s ×%d", id, st.Actions[id])
			}
		}
	}

	checkEnvelope(tb, dev, res)
	checkFleet(tb, dev, rec, c, res)
}

// checkEnvelope asserts the sealed-channel crypto invariants directly on
// the subscriber's key material: a tampered envelope never opens, a
// genuine one still does, and a replayed counter is rejected.
func checkEnvelope(tb *seed.Testbed, dev *seed.Device, res *Result) {
	sub, ok := tb.Network().UDM.Subscriber(dev.IMSI())
	if !ok {
		return
	}
	sealer := core.NewChannelEnvelope(sub.K)
	opener := core.NewChannelEnvelope(sub.K)
	pt := []byte("adversary-envelope-selftest")
	sealed, err := sealer.Seal(crypto5g.Downlink, pt)
	if err != nil {
		res.violate("envelope-tamper", "seal failed: %v", err)
		return
	}
	tampered := append([]byte(nil), sealed...)
	tampered[len(tampered)/2] ^= 0x40
	if _, err := opener.Open(crypto5g.Downlink, tampered); err == nil {
		res.violate("envelope-tamper", "tampered envelope accepted")
	}
	if got, err := opener.Open(crypto5g.Downlink, sealed); err != nil || !bytes.Equal(got, pt) {
		res.violate("envelope-tamper", "genuine envelope rejected after tamper attempt: %v", err)
	}
	if _, err := opener.Open(crypto5g.Downlink, sealed); err == nil {
		res.violate("envelope-replay", "replayed envelope accepted")
	}
}
