package dataplane

import (
	"testing"
	"time"

	"github.com/seed5g/seed/internal/radio"
	"github.com/seed5g/seed/internal/sched"
)

// silentPlane accepts every packet and answers none; it keeps a copy of what
// was sent (the packet itself is the app's scratch) so a test can
// hand-deliver the replies.
type silentPlane struct{ sent []radio.Packet }

func (p *silentPlane) send(pkt *radio.Packet) bool {
	p.sent = append(p.sent, *pkt)
	return true
}

func reply(to radio.Packet) *radio.Packet {
	return &radio.Packet{
		Proto: to.Proto, Src: to.Dst, Dst: to.Src, SrcPort: to.DstPort, DstPort: to.SrcPort,
		Tag: to.Tag, Length: 1400, Meta: "app-response",
	}
}

// TestFlowTagDispatch pins how a downlink packet finds its app by tag.
func TestFlowTagDispatch(t *testing.T) {
	k := sched.New(1)
	var p1, p2 silentPlane
	dns := (&fakePlane{}).dns
	first := NewApp(k, Spec(Navigation), p1.send, dns)
	second := NewApp(k, Spec(Navigation), p2.send, dns)
	var unclaimed []radio.Packet
	mux := &Mux{OnUnclaimed: func(pkt *radio.Packet) { unclaimed = append(unclaimed, *pkt) }}
	mux.Register(first)
	mux.Register(second)
	first.Start()
	second.Start()
	k.RunFor(Spec(Navigation).Interval) // one request each, same kind, same sequence
	if len(p1.sent) != 1 || len(p2.sent) != 1 || p1.sent[0].Tag != p2.sent[0].Tag {
		t.Fatalf("want one request each under one tag, got %+v and %+v", p1.sent, p2.sent)
	}
	tag := p1.sent[0].Tag
	if tag.Owner() != uint8(Navigation)+1 || tag == 0 {
		t.Fatalf("request tag %#x has owner %d, want %d", uint64(tag), tag.Owner(), uint8(Navigation)+1)
	}

	// Two apps of one kind: the first registered with the tag outstanding
	// takes the reply, the next reply goes to the second.
	mux.Dispatch(reply(p1.sent[0]))
	if a, b := first.Stats().Successes, second.Stats().Successes; a != 1 || b != 0 {
		t.Fatalf("first reply: successes %d and %d, want 1 and 0", a, b)
	}
	mux.Dispatch(reply(p1.sent[0]))
	if a, b := first.Stats().Successes, second.Stats().Successes; a != 1 || b != 1 {
		t.Fatalf("second reply: successes %d and %d, want 1 and 1", a, b)
	}

	// The owner byte matches but no such sequence is outstanding.
	mux.Dispatch(reply(p1.sent[0]))
	stale := reply(p1.sent[0])
	stale.Tag = radio.NewFlowTag(tag.Owner(), radio.FlowRequest, 999)
	mux.Dispatch(stale)
	// A hand-built packet carries a label and no tag.
	mux.Dispatch(&radio.Packet{Flow: "navigation-req-1", Meta: "app-response"})
	// A probe reply is nobody's among the apps: the device's, once.
	probe := &radio.Packet{Tag: radio.NewFlowTag(radio.FlowOwnerProbe, radio.FlowRequest, 1), Meta: "probe-ok"}
	mux.Dispatch(probe)
	if len(unclaimed) != 4 || unclaimed[3].Tag != probe.Tag {
		t.Fatalf("unclaimed = %+v, want the answered tag again, the stale tag, the labelled packet and the probe", unclaimed)
	}
	if a, b := first.Stats().Successes, second.Stats().Successes; a != 1 || b != 1 {
		t.Fatalf("unclaimed packets counted as successes: %d and %d", a, b)
	}
}

// TestAppStopSettlesInIssueOrder: Stop retires the outstanding requests
// oldest first — every deadline cancelled, none fired, and the records
// back on the free list in an order that does not change from run to run.
func TestAppStopSettlesInIssueOrder(t *testing.T) {
	k := sched.New(1)
	var p silentPlane
	spec := Spec(EdgeAR) // a request every 100 ms, 500 ms to answer: several outstanding
	a := NewApp(k, spec, p.send, (&fakePlane{}).dns)
	a.Start()
	k.RunFor(3 * spec.Interval)
	if len(a.pending) != 3 {
		t.Fatalf("%d requests outstanding, want 3", len(a.pending))
	}
	issued := append([]*request(nil), a.pending...)
	for i, r := range issued {
		if want := radio.NewFlowTag(uint8(EdgeAR)+1, radio.FlowRequest, i+1); r.tag != want {
			t.Fatalf("pending[%d] has tag %#x, want %#x: not in issue order", i, uint64(r.tag), uint64(want))
		}
	}
	before := k.Pending()
	a.Stop()
	// The three deadlines and the cycle ticker are gone.
	if got := before - k.Pending(); got != 3+1 {
		t.Fatalf("Stop cancelled %d events, want the 3 deadlines and the ticker", got)
	}
	if len(a.pending) != 0 || len(a.reqFree) != 3 {
		t.Fatalf("after Stop: %d pending, %d free, want 0 and 3", len(a.pending), len(a.reqFree))
	}
	for i, r := range issued {
		if a.reqFree[i] != r {
			t.Fatalf("free list slot %d does not hold request %d: settled out of issue order", i, i+1)
		}
	}
	k.RunFor(time.Second)
	if st := a.Stats(); st.Failures != 0 {
		t.Fatalf("a cancelled deadline fired: %+v", st)
	}
	// Start again: the records come back off the free list last-settled first.
	a.Start()
	k.RunFor(2 * spec.Interval)
	if len(a.pending) != 2 || a.pending[0] != issued[2] || a.pending[1] != issued[1] {
		t.Fatal("restarted app did not reuse the settled records in free-list order")
	}
}
