package seed

import (
	"time"

	"github.com/seed5g/seed/internal/cause"
	"github.com/seed5g/seed/internal/core5g"
	"github.com/seed5g/seed/internal/nas"
	"github.com/seed5g/seed/internal/sim"
)

// InjectOpts controls a management-failure injection.
type InjectOpts struct {
	// Count is how many procedures to fail (0 means one; -1 until healed).
	Count int
	// HealAfter removes the condition after the given duration from the
	// first triggered failure (0: never self-heals).
	HealAfter time.Duration
	// Silent drops the procedure instead of rejecting (timeout class).
	Silent bool
}

func (o InjectOpts) remaining() int {
	if o.Count == 0 {
		return 1
	}
	return o.Count
}

// addRule installs a reject rule with the heal semantics of InjectOpts:
// with HealAfter set, the rule is removed that long after it first fires.
func (tb *Testbed) addRule(d *Device, plane cause.Plane, code uint8, o InjectOpts) {
	rule := tb.rules.Get()
	*rule = core5g.RejectRule{
		UE:        d.IMSI(),
		Plane:     plane,
		Cause:     cause.Code(code),
		Remaining: o.remaining(),
		Silent:    o.Silent,
	}
	if o.HealAfter > 0 {
		rule.Remaining = -1
		if o.Silent {
			// No reject reaches the device; heal from injection time.
			tb.kern.AfterArg(o.HealAfter, tb.removeRuleFn, rule)
		} else {
			d.subscribeReject(rejectSub{kind: subHeal, rule: rule, heal: o.HealAfter})
		}
	}
	tb.net.Inj.Add(rule)
}

// InjectControlFailure makes the network fail the device's registration
// procedures with the given 5GMM cause code.
func (tb *Testbed) InjectControlFailure(d *Device, code uint8, o InjectOpts) {
	tb.addRule(d, cause.ControlPlane, code, o)
}

// InjectDataFailure makes the network fail the device's PDU session
// procedures with the given 5GSM cause code.
func (tb *Testbed) InjectDataFailure(d *Device, code uint8, o InjectOpts) {
	tb.addRule(d, cause.DataPlane, code, o)
}

// ClearInjections removes all reject rules for the device.
func (tb *Testbed) ClearInjections(d *Device) { tb.net.Inj.Clear(d.IMSI()) }

// DesyncIdentity makes the network forget the device's temporary identity
// and registration context (Table 1's top control-plane failure).
func (tb *Testbed) DesyncIdentity(d *Device) { tb.net.AMF.DesyncIdentity(d.IMSI()) }

// SimulateMobility makes the device silently re-register, as after a
// tracking-area change — the trigger that turns a desynced identity into
// repeated cause-9 failures.
func (tb *Testbed) SimulateMobility(d *Device) { d.inner.Mdm.SimulateMobility() }

// BlockTCP installs a network-side TCP policy block for the device.
func (tb *Testbed) BlockTCP(d *Device) {
	tb.net.UPF.AddBlock(d.IMSI(), core5g.PolicyBlock{Proto: nas.ProtoTCP})
}

// BlockUDP installs a network-side UDP policy block (DNS excepted, so the
// failure stays invisible to Android's rules, §3.3).
func (tb *Testbed) BlockUDP(d *Device) {
	tb.net.UPF.AddBlock(d.IMSI(), core5g.PolicyBlock{Proto: nas.ProtoUDP, PortLow: 1024, PortHigh: 65535})
}

// UnblockAll removes the device's policy blocks.
func (tb *Testbed) UnblockAll(d *Device) { tb.net.UPF.ClearBlocks(d.IMSI()) }

// SetDNSOutage toggles the carrier LDNS outage.
func (tb *Testbed) SetDNSOutage(down bool) { tb.net.UPF.SetLDNSDown(down) }

// StallGateway corrupts the device's user-plane forwarding state (the
// reconnection-fixable "outdated gateway" failure); re-establishing the
// session clears it.
func (tb *Testbed) StallGateway(d *Device) { tb.net.UPF.StallUE(d.IMSI()) }

// ExpirePlan marks the subscription's data plan inactive: PDU sessions are
// rejected with "user authentication failed" until ReactivatePlan.
func (tb *Testbed) ExpirePlan(d *Device) {
	if sub, ok := tb.net.UDM.Subscriber(d.IMSI()); ok {
		sub.PlanActive = false
	}
}

// ReactivatePlan restores the data plan (the user action).
func (tb *Testbed) ReactivatePlan(d *Device) {
	if sub, ok := tb.net.UDM.Subscriber(d.IMSI()); ok {
		sub.PlanActive = true
	}
}

// MigrateSubscription switches the subscriber's only allowed DNN to
// newDNN. With simUpdated, the SIM's EF_DNN is OTA-updated too (the
// stale-modem-cache case: a reboot fixes it); otherwise the stale value
// survives everywhere and only network assistance can fix it.
func (tb *Testbed) MigrateSubscription(d *Device, newDNN string, simUpdated bool) {
	sub, ok := tb.net.UDM.Subscriber(d.IMSI())
	if !ok {
		return
	}
	// The subscription's list and map are its own: rewritten in place.
	cfg := sub.Sessions[sub.DefaultDNN]
	sub.DefaultDNN = newDNN
	sub.AllowedDNNs = append(sub.AllowedDNNs[:0], newDNN)
	clear(sub.Sessions)
	sub.Sessions[newDNN] = cfg
	if simUpdated {
		_ = d.inner.Card.FS().Write(sim.EFDNN, []byte(newDNN))
	}
}

// OTAWriteDNN updates the SIM's EF_DNN over the air without a refresh
// (the modem keeps whatever it has cached until something reloads it).
func (tb *Testbed) OTAWriteDNN(d *Device, dnn string) {
	_ = d.inner.Card.FS().Write(sim.EFDNN, []byte(dnn))
}

// RestrictSlice restricts the subscription to the given slice type; a
// device still requesting its old SST gets cause-62 rejects with the
// suggested S-NSSAI.
func (tb *Testbed) RestrictSlice(d *Device, sst uint8) {
	if sub, ok := tb.net.UDM.Subscriber(d.IMSI()); ok {
		sub.AllowedSST = []uint8{sst}
	}
}

// OTAFixSlice is the operator's out-of-band slice-config repair: update
// EF_SNSSAI and refresh the SIM.
func (tb *Testbed) OTAFixSlice(d *Device, sst uint8) {
	_ = d.inner.Card.FS().Write(sim.EFSNSSAI, []byte{sst, 0, 0, 0})
	d.inner.Card.QueueProactive(sim.ProactiveCommand{
		Type: sim.ProactiveRefresh, Mode: sim.RefreshInit,
	})
}

// OTAFixDNN performs the operator's out-of-band repair for the
// stale-everywhere case: update EF_DNN over the air and refresh the SIM.
func (tb *Testbed) OTAFixDNN(d *Device, dnn string) {
	_ = d.inner.Card.FS().Write(sim.EFDNN, []byte(dnn))
	d.inner.Card.QueueProactive(sim.ProactiveCommand{
		Type: sim.ProactiveRefresh, Mode: sim.RefreshInit,
	})
}

// CorruptSessionTFT replaces the device's deployed session TFT with one
// that drops everything (a misconfigured traffic template); the
// authoritative subscription config stays correct, so a SEED data-plane
// modification repairs it.
func (tb *Testbed) CorruptSessionTFT(d *Device) {
	for _, id := range tb.net.SMF.SessionIDs(d.IMSI()) {
		ctx, okC := tb.net.SMF.Session(d.IMSI(), id)
		if !okC || ctx.Diag {
			continue
		}
		cfg := ctx.Config
		cfg.TFT = nas.TFT{Filters: []nas.PacketFilter{{
			Direction: nas.FilterBidirectional, Protocol: nas.ProtoTCP,
			RemoteAddr: nas.Addr{192, 0, 2, 1}, PortLow: 1, PortHigh: 1,
		}}}
		ctx.Config = cfg
		tb.net.UPF.InstallSession(ctx)
	}
}

// SetRadioJitter adds uniform jitter to the device's radio link in both
// directions (FIFO ordering is preserved, as RLC-AM would).
func (tb *Testbed) SetRadioJitter(d *Device, j time.Duration) {
	d.inner.Radio.SetJitter(j)
}

// ReleaseSessions tears down the device's sessions from the network side
// (with release commands), as during a subscription migration.
func (tb *Testbed) ReleaseSessions(d *Device) {
	tb.net.SMF.ReleaseAll(d.IMSI(), true)
}

// EstablishIMS brings up the device's IMS session (real handsets keep a
// second PDN alive, which is also why losing the internet session does
// not deregister them).
func (tb *Testbed) EstablishIMS(d *Device) {
	d.inner.Mdm.EstablishSession("ims", nas.SessionIPv4)
}

// ReleaseInternetSessions releases only the device's internet-class
// sessions network-side, leaving IMS (and its bearer) in place.
func (tb *Testbed) ReleaseInternetSessions(d *Device) {
	for _, id := range tb.net.SMF.SessionIDs(d.IMSI()) {
		if ctx, ok := tb.net.SMF.Session(d.IMSI(), id); ok && ctx.DNN != "ims" && !ctx.Diag {
			tb.net.SMF.ReleaseSessionCmd(d.IMSI(), id)
		}
	}
}
