package core

// Tests for the §9 discussion extensions beyond the core evaluation.

import (
	"testing"
	"time"

	"github.com/seed5g/seed/internal/dataplane"
	"github.com/seed5g/seed/internal/nas"
	"github.com/seed5g/seed/internal/sched"
)

// TestSliceScopedReset: with network slicing, a failure confined to one
// slice (here the internet PDN) is reset without disturbing the other
// slice's session (the IMS PDN) — §9's "reset or modify the failed
// network slice without affecting other functioning slices".
func TestSliceScopedReset(t *testing.T) {
	w := newWorld(41)
	d := w.addDevice(t, "310170000041001", SEEDR)
	web := d.AddApp(dataplane.Web)
	attach(t, w, d)
	d.Mdm.EstablishSession("ims", nas.SessionIPv4)
	w.k.RunFor(2 * time.Second)

	imsID := uint8(0)
	for _, s := range d.Mdm.Sessions() {
		if s.DNN == "ims" && s.Active {
			imsID = s.ID
		}
	}
	if imsID == 0 {
		t.Fatal("no IMS session")
	}

	// Track every session drop: the IMS slice must never flap.
	var droppedIMS bool
	w.k.Observe(watch(func(tr sched.Transition, id, active int) {
		if tr == sched.SessionRemoved && id == int(imsID) && active == 1 {
			droppedIMS = true
		}
	}))

	web.Start()
	w.k.RunFor(10 * time.Second)

	// The internet slice's gateway state corrupts; SEED's report-driven
	// fast reset cycles only that slice.
	w.net.UPF.StallDNN(d.Cfg.IMSI, "internet")
	w.k.RunFor(time.Minute)

	if w.net.UPF.Stalled(d.Cfg.IMSI) {
		t.Fatal("stall not recovered")
	}
	if droppedIMS {
		t.Fatal("the healthy IMS slice was disturbed by the reset")
	}
	if d.Applet.Stats().Actions[ActionB3] == 0 {
		t.Fatalf("expected a B3 slice reset; actions = %v", d.Applet.Stats().Actions)
	}
	// The IMS session is still there and active.
	found := false
	for _, s := range d.Mdm.Sessions() {
		if s.ID == imsID && s.Active {
			found = true
		}
	}
	if !found {
		t.Fatal("IMS session gone after the internet-slice reset")
	}
}
