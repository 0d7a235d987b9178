package seed

import (
	"reflect"
	"testing"
	"time"
	"unsafe"

	"github.com/seed5g/seed/internal/core5g"
	"github.com/seed5g/seed/internal/dataplane"
	"github.com/seed5g/seed/internal/nas"
	"github.com/seed5g/seed/internal/radio"
)

// frameLedger is a poisoning stand-in for a testbed's FramePool free list,
// installed through the pool's audit hook: it counts the frames handed out,
// keeps every released frame off the free list for good, overwrites it with a
// sentinel (whoever reads a frame after its release reads garbage) and fails
// the test when a frame is released a second time.
type frameLedger struct {
	t          *testing.T
	live, dead map[*radio.Packet]bool
	gets, puts int
	// clones counts released frames the pool never handed out: the copies a
	// duplicating link makes (radio.Packet.CloneMsg).
	clones int
}

var poisonedFrame = radio.Packet{
	UE: "\xDBreleased", SessionID: 0xDB, Proto: 0xDB,
	Src: [4]byte{0xDB, 0xDB, 0xDB, 0xDB}, Dst: [4]byte{0xDB, 0xDB, 0xDB, 0xDB},
	SrcPort: 0xDBDB, DstPort: 0xDBDB, Tag: 0xDBDBDBDBDBDBDBDB,
	Flow: "\xDBreleased", Length: -0x24242425, Meta: "\xDBreleased",
}

func poisonFrames(t *testing.T, pool *radio.FramePool) *frameLedger {
	t.Helper()
	l := &frameLedger{t: t, live: map[*radio.Packet]bool{}, dead: map[*radio.Packet]bool{}}
	// The hook is unexported on purpose (tests only); this test needs the
	// whole stack above the pool, which package radio's own tests cannot build.
	f := reflect.ValueOf(pool).Elem().FieldByName("audit")
	reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem().Set(reflect.ValueOf(l.audit))
	return l
}

func (l *frameLedger) audit(f *radio.Packet, released bool) {
	if !released {
		l.gets++
		l.live[f] = true
		return
	}
	l.puts++
	switch {
	case l.live[f]:
		delete(l.live, f)
	case l.dead[f]:
		l.t.Errorf("frame %p released twice", f)
	default:
		l.clones++
	}
	l.dead[f] = true
	*f = poisonedFrame
}

// TestUserPlaneFrameOwnership sends a packet into every place a packet can
// die, and through every kind of reply, under a poisoning frame pool: each
// attempt takes at most one frame — a round trip exactly one, the reply
// riding the request's frame — every frame taken is released exactly once
// whoever drops it, and what is delivered is read before its frame goes back.
func TestUserPlaneFrameOwnership(t *testing.T) {
	tb := New(1)
	d := tb.NewDevice(ModeLegacy)
	d.Start()
	if !tb.RunUntil(d.Connected, connectDeadline) {
		t.Fatal("device did not connect")
	}
	d.inner.Mon.Stop() // its probes are packets too; this test sends its own
	ledger := poisonFrames(t, tb.net.Frames)
	imsi, inner, gnb, upf := d.IMSI(), d.inner, tb.net.GNB, tb.net.UPF

	var delivered []radio.Packet
	inner.Mux.OnUnclaimed = func(p *radio.Packet) { delivered = append(delivered, *p) }

	sessionID := func() uint8 {
		s, okS := inner.Mdm.FirstActiveSession()
		if !okS {
			t.Fatal("no active session")
		}
		return s.ID
	}
	// reinstall rebinds the UE's sessions from the subscription: fresh
	// forwarding state (no stall) under the authoritative TFT.
	reinstall := func() {
		sub, _ := tb.net.UDM.Subscriber(imsi)
		for _, id := range tb.net.SMF.SessionIDs(imsi) {
			ctx, _ := tb.net.SMF.Session(imsi, id)
			ctx.Config = sub.Sessions[ctx.DNN]
			upf.InstallSession(ctx)
		}
	}
	reconnect := func() {
		if !tb.RunUntil(d.Connected, connectDeadline) {
			t.Fatal("device did not reconnect")
		}
	}
	appServer := radio.Packet{Proto: nas.ProtoTCP, Dst: [4]byte(dataplane.AppServerAddr), SrcPort: 40001, DstPort: 443, Tag: 7, Length: 600}
	ldns := radio.Packet{Proto: nas.ProtoUDP, Dst: [4]byte(core5g.LDNSAddr), SrcPort: 40002, DstPort: 53, Tag: 8, Length: 64, Meta: "x.example"}
	publicDNS := ldns
	publicDNS.Dst = [4]byte(core5g.PublicDNSAddr)
	probe := radio.Packet{Proto: nas.ProtoTCP, Dst: [4]byte(dataplane.ProbeServerAddr), SrcPort: 40003, DstPort: 80, Tag: 9, Length: 128}

	// A case sends pkt once. before breaks something ahead of the send,
	// midFlight 15 ms after it — the uplink is past the UPF by then (11 ms)
	// and the reply not yet injected (26 ms from the carrier resolver, 31 ms
	// from a server) — and after mends it. refused: SendPacket reports false.
	// replies, gets and clones are what the attempt must deliver, take from
	// the pool and clone.
	cases := []struct {
		name              string
		pkt               radio.Packet
		before, midFlight func()
		after             func()
		refused           bool
		replies, gets     int
		clones            int
	}{
		{name: "app server round trip", pkt: appServer, replies: 1, gets: 1},
		{name: "carrier resolver answer", pkt: ldns, replies: 1, gets: 1},
		{name: "public resolver answer", pkt: publicDNS, replies: 1, gets: 1},
		{name: "probe reply", pkt: probe, replies: 1, gets: 1},

		{name: "stalled session, uplink", pkt: appServer, gets: 1,
			before: func() { tb.StallGateway(d) }, after: reinstall},
		{name: "stalled session, downlink", pkt: appServer, gets: 1,
			midFlight: func() { tb.StallGateway(d) }, after: reinstall},
		{name: "TFT refusal, uplink", pkt: appServer, gets: 1,
			before: func() { tb.CorruptSessionTFT(d) }, after: reinstall},
		{name: "TFT refusal, downlink", pkt: appServer, gets: 1,
			midFlight: func() { tb.CorruptSessionTFT(d) }, after: reinstall},
		{name: "policy block, uplink", pkt: appServer, gets: 1,
			before: func() { tb.BlockTCP(d) }, after: func() { tb.UnblockAll(d) }},
		{name: "policy block, downlink", pkt: appServer, gets: 1,
			midFlight: func() { tb.BlockTCP(d) }, after: func() { tb.UnblockAll(d) }},
		{name: "carrier resolver down", pkt: ldns, gets: 1,
			before: func() { tb.SetDNSOutage(true) }, after: func() { tb.SetDNSOutage(false) }},
		{name: "public resolver down", pkt: publicDNS, gets: 1,
			before: func() { tb.internet.PublicDNSDown = true }, after: func() { tb.internet.PublicDNSDown = false }},
		{name: "probe server down", pkt: probe, gets: 1,
			before: func() { tb.internet.ProbeServerDown = true }, after: func() { tb.internet.ProbeServerDown = false }},

		{name: "unknown UE at the gNB, uplink", pkt: appServer, gets: 1,
			before: func() { gnb.DetachUE(imsi) },
			after: func() {
				gnb.AttachUE(imsi, inner.Radio.B2A.Send)
				gnb.AddBearer(imsi, sessionID())
				gnb.HandleUplink(radio.RRCConnect{UE: imsi})
			}},
		{name: "unknown UE at the gNB, downlink", pkt: appServer, gets: 1,
			midFlight: func() { gnb.DetachUE(imsi) },
			after: func() {
				gnb.AttachUE(imsi, inner.Radio.B2A.Send)
				gnb.AddBearer(imsi, sessionID())
				gnb.HandleUplink(radio.RRCConnect{UE: imsi})
			}},
		// A second bearer keeps the RRC connection when the session's goes.
		{name: "missing bearer, uplink", pkt: appServer, gets: 1,
			before: func() { gnb.AddBearer(imsi, 77); gnb.RemoveBearer(imsi, sessionID()) },
			after:  func() { gnb.AddBearer(imsi, sessionID()); gnb.RemoveBearer(imsi, 77) }},
		{name: "missing bearer, downlink", pkt: appServer, gets: 1,
			midFlight: func() { gnb.AddBearer(imsi, 77); gnb.RemoveBearer(imsi, sessionID()) },
			after:     func() { gnb.AddBearer(imsi, sessionID()); gnb.RemoveBearer(imsi, 77) }},

		// The sender releases what its link refused.
		{name: "radio link down, uplink", pkt: appServer, gets: 1, refused: true,
			before: func() { inner.Radio.A2B.SetDown(true) }, after: func() { inner.Radio.A2B.SetDown(false) }},
		{name: "radio link down, downlink", pkt: appServer, gets: 1,
			midFlight: func() { inner.Radio.B2A.SetDown(true) }, after: func() { inner.Radio.B2A.SetDown(false) }},
		{name: "radio link lossy, uplink", pkt: appServer, gets: 1, refused: true,
			before: func() { inner.Radio.A2B.Loss = 1 }, after: func() { inner.Radio.A2B.Loss = 0 }},
		{name: "radio link lossy, downlink", pkt: appServer, gets: 1,
			midFlight: func() { inner.Radio.B2A.Loss = 1 }, after: func() { inner.Radio.B2A.Loss = 0 }},

		// A modem that is off or booting hears nothing and still releases.
		{name: "modem off", pkt: appServer, gets: 1,
			midFlight: func() { inner.Mdm.PowerOff() },
			after:     func() { inner.Mdm.PowerOn(); reconnect() }},
		{name: "modem booting", pkt: appServer, gets: 1,
			midFlight: func() { inner.Mdm.Reboot() }, after: reconnect},

		// Idle mode: the frame waits in the modem for the Service Accept and
		// then makes the round trip it was taken for.
		{name: "idle-mode queue flushed", pkt: appServer, replies: 1, gets: 1,
			before: func() {
				tb.Advance(35 * time.Second)
				if inner.Mdm.RRCConnected() {
					t.Fatal("modem did not go idle")
				}
			}},
		// ...or is released with the registration it was queued under.
		{name: "idle-mode queue dropped", pkt: appServer, gets: 1,
			before: func() {
				tb.Advance(35 * time.Second)
				tb.After(time.Millisecond, inner.Mdm.PowerOff) // before the Service Accept
			},
			after: func() { inner.Mdm.PowerOn(); reconnect() }},

		// Every hop over a duplicating link doubles the packet: two requests
		// reach the server, four replies the modem, in one frame from the
		// pool and three clones.
		{name: "duplicating link", pkt: appServer, replies: 4, gets: 1, clones: 3,
			before: func() { inner.Radio.SetDup(1) }, after: func() { inner.Radio.SetDup(0) }},
	}
	for _, c := range cases {
		if c.before != nil {
			c.before()
		}
		delivered = delivered[:0]
		gets, puts, clones := ledger.gets, ledger.puts, ledger.clones
		pkt := c.pkt
		if sent := inner.SendPacket(&pkt); sent == c.refused {
			t.Errorf("%s: SendPacket = %v", c.name, sent)
		}
		if c.midFlight != nil {
			tb.Advance(15 * time.Millisecond)
			c.midFlight()
		}
		tb.Advance(time.Second)
		gets, puts, clones = ledger.gets-gets, ledger.puts-puts, ledger.clones-clones
		if gets != c.gets || clones != c.clones || puts != gets+clones || len(ledger.live) != 0 {
			t.Errorf("%s: %d frames taken, %d cloned, %d released, %d still held; want %d taken, %d cloned, all released",
				c.name, gets, clones, puts, len(ledger.live), c.gets, c.clones)
		}
		if len(delivered) != c.replies {
			t.Errorf("%s: %d packets delivered, want %d", c.name, len(delivered), c.replies)
		}
		for _, p := range delivered {
			// Read inside the handler, before the modem released the frame:
			// the request's flow, turned around, not the sentinel.
			if p.Tag != c.pkt.Tag || p.Src != c.pkt.Dst || p.DstPort != c.pkt.SrcPort || p.UE != imsi || p.Meta == "" || p.Meta == poisonedFrame.Meta {
				t.Errorf("%s: delivered %+v", c.name, p)
			}
		}
		if c.after != nil {
			c.after()
		}
	}

	// No session: the modem refuses before it takes a frame.
	gets := ledger.gets
	if inner.Mdm.SendPacket(&radio.Packet{SessionID: 99}) || ledger.gets != gets {
		t.Errorf("no session: packet accepted, or %d frames taken for it", ledger.gets-gets)
	}

	// And with an app on top: what App.HandleDownlink borrows it reads before
	// the release, one frame per request.
	app := d.AddApp(AppEdgeAR)
	gets = ledger.gets
	app.Start()
	tb.Advance(2 * time.Second)
	app.Stop()
	tb.Advance(time.Second)
	sent, ok, failed, _ := app.Requests()
	if sent < 15 || ok < sent-1 || failed != 0 || ledger.gets-gets != sent || len(ledger.live) != 0 {
		t.Errorf("app traffic: %d requests, %d answered, %d failed, %d frames taken, %d still held",
			sent, ok, failed, ledger.gets-gets, len(ledger.live))
	}
}
