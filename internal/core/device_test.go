package core

import (
	"testing"
	"time"

	"github.com/seed5g/seed/internal/nas"
	"github.com/seed5g/seed/internal/sched"
)

// TestSessionIDsSurviveWrap: a modem hands out session IDs for as long as it
// lives, so the counter behind them comes round. 300 establish/release rounds
// with the data session held active throughout: no round is given 0 (which
// EstablishSession documents as "not registered"), an ID from the 200–249
// range DIAG reports travel under, or the ID of the session still held —
// whose replacement by a fresh inactive one used to take connectivity away
// without an active SessionRemoved, a transition nobody announced.
func TestSessionIDsSurviveWrap(t *testing.T) {
	w := newWorld(61)
	d := w.addDevice(t, "310170000061001", Legacy)
	attach(t, w, d)
	held, okS := d.Mdm.FirstActiveSession()
	if !okS {
		t.Fatal("no data session after attach")
	}
	flips, up := 0, d.Connected()
	w.k.Observe(watch(func(tr sched.Transition, id, active int) {
		if now := d.Connected(); now != up {
			up = now
			flips++
		}
		if tr == sched.SessionRemoved && id == int(held.ID) && active == 1 {
			t.Errorf("the held session %d went down", id)
		}
	}))
	for round := 1; round <= 300; round++ {
		id := d.Mdm.EstablishSession("ims", nas.SessionIPv4)
		if id == 0 || id >= 200 || id == held.ID {
			t.Fatalf("round %d: session ID %d (held: %d)", round, id, held.ID)
		}
		w.k.RunFor(time.Second)
		if s, okS := d.Mdm.Session(id); !okS || !s.Active {
			t.Fatalf("round %d: session %d did not come up", round, id)
		}
		d.Mdm.ReleaseSession(id)
		w.k.RunFor(time.Second)
		if !d.Connected() {
			t.Fatalf("round %d: connectivity lost", round)
		}
	}
	if s, okS := d.Mdm.Session(held.ID); !okS || s != held || !s.Active {
		t.Errorf("the held session did not survive: %+v", s)
	}
	if flips != 0 {
		t.Errorf("connectivity flipped %d times", flips)
	}
}
