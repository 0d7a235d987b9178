package core

// Direct tests for the carrier app's recovery action module: the
// make-before-break resets, root gating, DNS override, and record upload.

import (
	"testing"
	"time"

	"github.com/seed5g/seed/internal/cause"
	"github.com/seed5g/seed/internal/core5g"
	"github.com/seed5g/seed/internal/dataplane"
	"github.com/seed5g/seed/internal/radio"
)

func TestCarrierResetDataConnectionMakeBeforeBreak(t *testing.T) {
	w := newWorld(51)
	d := w.addDevice(t, "310170000051001", SEEDU)
	attach(t, w, d)

	// Record session transitions: connectivity must never drop during the
	// make-before-break cycle.
	drops := 0
	onConnectivity(w, d, func(up bool) {
		if !up {
			drops++
		}
	})
	old, _ := d.dataSession()
	d.CApp.ResetDataConnection()
	w.k.RunFor(5 * time.Second)

	cur, okS := d.dataSession()
	if !okS {
		t.Fatal("no session after reset")
	}
	if cur.ID == old.ID {
		t.Fatal("session was not cycled")
	}
	if drops != 0 {
		t.Fatalf("connectivity dropped %d times during make-before-break", drops)
	}
	if d.CApp.Stats().DataResets != 1 {
		t.Fatalf("DataResets = %d", d.CApp.Stats().DataResets)
	}
}

func TestCarrierRunATRequiresRoot(t *testing.T) {
	w := newWorld(52)
	d := w.addDevice(t, "310170000052001", SEEDU)
	attach(t, w, d)
	if err := d.CApp.RunAT("AT+CFUN=1,1"); err == nil {
		t.Fatal("AT command executed without root")
	}
	d.CApp.DetectRoot(true)
	w.k.RunFor(time.Second)
	if err := d.CApp.RunAT("AT"); err != nil {
		t.Fatal(err)
	}
	w.k.RunFor(time.Second)
	if d.CApp.Stats().ATCommands != 1 {
		t.Fatalf("ATCommands = %d", d.CApp.Stats().ATCommands)
	}
	// Root can be revoked.
	d.CApp.DetectRoot(false)
	w.k.RunFor(time.Second)
	if err := d.CApp.RunAT("AT"); err == nil {
		t.Fatal("AT command executed after root revoked")
	}
	if d.Applet.Mode() != ModeU {
		t.Fatal("applet did not drop back to SEED-U")
	}
}

func TestCarrierDNSOverride(t *testing.T) {
	w := newWorld(53)
	d := w.addDevice(t, "310170000053001", SEEDU)
	attach(t, w, d)
	if d.DNSServer() != core5g.LDNSAddr {
		t.Fatalf("default DNS = %v", d.DNSServer())
	}
	d.CApp.UpdateDataConfig(cause.ConfigGeneric, core5g.PublicDNSAddr[:])
	if d.DNSServer() != core5g.PublicDNSAddr {
		t.Fatalf("override DNS = %v", d.DNSServer())
	}
	// The app layer sees the override immediately.
	app := d.AddApp(dataplane.Web)
	_ = app
	if got := d.DNSServer(); got != core5g.PublicDNSAddr {
		t.Fatalf("apps resolve via %v", got)
	}
}

func TestCarrierDNNConfigUpdate(t *testing.T) {
	w := newWorld(54)
	d := w.addDevice(t, "310170000054001", SEEDU)
	attach(t, w, d)
	d.CApp.UpdateDataConfig(cause.ConfigDNN, []byte("ims"))
	if d.Mdm.Profile().DNN != "ims" {
		t.Fatalf("modem cached DNN = %q", d.Mdm.Profile().DNN)
	}
	if d.CApp.Stats().ConfigUpdates != 1 {
		t.Fatalf("ConfigUpdates = %d", d.CApp.Stats().ConfigUpdates)
	}
}

func TestCarrierFastDataResetSequence(t *testing.T) {
	w := newWorld(55)
	d := w.addDevice(t, "310170000055001", SEEDR)
	attach(t, w, d)

	// Count DIAG establishments at the SMF: exactly one placeholder.
	before := w.net.SMF.Stats().Establishes
	d.CApp.FastDataReset()
	w.k.RunFor(5 * time.Second)
	// Two new establishments: the DIAG placeholder and the fresh DATA.
	if got := w.net.SMF.Stats().Establishes - before; got != 2 {
		t.Fatalf("establishments during fast reset = %d, want 2", got)
	}
	for _, s := range d.Mdm.Sessions() {
		if s.DNN == "DIAG" {
			t.Fatal("DIAG placeholder leaked")
		}
	}
	if !d.Connected() {
		t.Fatal("no data session after fast reset")
	}
}

func TestCarrierRequestDataModification(t *testing.T) {
	w := newWorld(56)
	d := w.addDevice(t, "310170000056001", SEEDR)
	attach(t, w, d)
	before := w.net.SMF.Stats().Modification
	d.CApp.RequestDataModification()
	w.k.RunFor(2 * time.Second)
	if w.net.SMF.Stats().Modification != before+1 {
		t.Fatal("modification did not reach the SMF")
	}
}

func TestCarrierUploadRecordsEmptyIsSilent(t *testing.T) {
	w := newWorld(57)
	d := w.addDevice(t, "310170000057001", SEEDU)
	attach(t, w, d)
	called := false
	d.CApp.SetRecordSink(func([]byte) { called = true })
	d.CApp.UploadRecords()
	w.k.RunFor(time.Second)
	if called {
		t.Fatal("sink invoked for empty records")
	}
}

func TestDeviceProbeFlow(t *testing.T) {
	w := newWorld(58)
	d := w.addDevice(t, "310170000058001", Legacy)
	attach(t, w, d)
	// Let the Android monitor run its periodic probes against the real
	// probe server; no stall may be declared on a healthy plane.
	w.k.RunFor(5 * time.Minute)
	stalls, _ := d.Mon.Stats()
	if stalls != 0 {
		t.Fatalf("healthy device declared %d stalls", stalls)
	}
	if w.inet.Served() == 0 {
		t.Fatal("probe server never reached")
	}
	// A broken probe server causes the §3.3 false positive.
	w.inet.ProbeServerDown = true
	w.k.RunFor(5 * time.Minute)
	stalls, actions := d.Mon.Stats()
	if stalls == 0 || actions == 0 {
		t.Fatalf("false-positive path: stalls=%d actions=%d", stalls, actions)
	}
}

// TestFlowTagDispatch is the device's end of the dataplane test of the
// same name: a probe's reply comes back through the mux, past the apps,
// to the probe that sent it, exactly once; a labelled packet without a
// tag completes nothing.
func TestFlowTagDispatch(t *testing.T) {
	w := newWorld(58)
	d := w.addDevice(t, "310170000058002", Legacy)
	d.AddApp(dataplane.Web).Start()
	attach(t, w, d)
	type outcome struct {
		attempt uint32
		ok      bool
	}
	var results []outcome
	d.probeDone = func(attempt uint32, ok bool) { results = append(results, outcome{attempt, ok}) }
	const attempt = 7
	d.probe(attempt)
	if len(d.pendingProbes) != 1 || len(results) != 0 {
		t.Fatalf("%d probes pending and outcomes %v after one was sent", len(d.pendingProbes), results)
	}
	d.Mux.Dispatch(&radio.Packet{Flow: "probe-1", Meta: "probe-ok"})
	if len(results) != 0 {
		t.Fatalf("a packet with a label and no tag completed the probe: %v", results)
	}
	var tag radio.FlowTag
	for tag = range d.pendingProbes {
	}
	if tag.Owner() != radio.FlowOwnerProbe {
		t.Fatalf("probe tag %#x has owner %d", uint64(tag), tag.Owner())
	}
	w.k.RunFor(time.Second)
	if len(results) != 1 || results[0] != (outcome{attempt, true}) || len(d.pendingProbes) != 0 {
		t.Fatalf("probe outcomes %v with %d still pending, want one success of attempt %d", results, len(d.pendingProbes), attempt)
	}
	d.Mux.Dispatch(&radio.Packet{Tag: tag, Meta: "probe-ok"}) // a duplicate of the reply
	if len(results) != 1 {
		t.Fatalf("duplicate reply completed the probe again: %v", results)
	}
}
