package netemu_test

import (
	"testing"
	"time"

	"github.com/seed5g/seed"
	"github.com/seed5g/seed/internal/netemu"
)

// TestDetectorClassifiesOutageUnderAdversarialLink runs a full device on a
// radio link with reorder and duplication combined, then blocks TCP at the
// UPF: the OS data-plane detector must still declare a stall and classify
// it as a transport outage despite the noisy link.
// The device runs in Legacy mode on purpose — a SEED device reports the
// failure and the infrastructure removes the policy block long before the
// stock detector's thresholds trip, which is the paper's point but would
// leave this detector path untested.
func TestDetectorClassifiesOutageUnderAdversarialLink(t *testing.T) {
	tb := seed.New(909)
	d := tb.NewDevice(seed.ModeLegacy)
	cd := d.Core()

	cd.Radio.SetReorder(0.3, 0)
	cd.Radio.SetDup(0.2)

	web := d.AddApp(seed.AppWeb)
	d.Start()
	if !tb.RunUntil(d.Connected, time.Minute) {
		t.Fatal("attach failed under adversarial link conditions")
	}
	web.Start()
	tb.Advance(30 * time.Second)

	tb.BlockTCP(d)
	if !tb.RunUntil(cd.Mon.Stalled, 5*time.Minute) {
		t.Fatal("data-plane detector never declared a stall after TCP was blocked")
	}
	if r := cd.Mon.StallReason(); r != "tcp" && r != "probe" {
		t.Fatalf("stall classified as %q, want a transport rule (tcp/probe)", r)
	}

	var reordered, duplicated int
	for _, l := range []*netemu.Link{cd.Radio.A2B, cd.Radio.B2A} {
		re, du := l.AdvStats()
		reordered += re
		duplicated += du
	}
	if reordered == 0 || duplicated == 0 {
		t.Fatalf("adversarial knobs never fired: reordered=%d duplicated=%d", reordered, duplicated)
	}
}
