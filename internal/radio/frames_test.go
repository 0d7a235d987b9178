package radio

import "testing"

// The radio link carries frames as `any` values and both endpoints demux
// with a type switch (gnb.HandleUplink, modem.HandleDownlink). These tests
// pin the contract that makes that safe: each frame type stays distinct
// through an any round trip, and frames are plain values — a copy taken at
// send time is immune to later mutation by the sender.

func TestFrameTypeSwitchDemux(t *testing.T) {
	frames := []any{
		RRCConnect{UE: "imsi-1"},
		RRCRelease{UE: "imsi-1"},
		UplinkNAS{UE: "imsi-1", Bytes: []byte{0x7E, 1}},
		DownlinkNAS{UE: "imsi-1", Bytes: []byte{0x7E, 2}},
		Packet{UE: "imsi-1", SessionID: 3, Proto: 17},
	}
	var seen []string
	for _, f := range frames {
		switch fr := f.(type) {
		case RRCConnect:
			seen = append(seen, "connect:"+fr.UE)
		case RRCRelease:
			seen = append(seen, "release:"+fr.UE)
		case UplinkNAS:
			seen = append(seen, "ulnas")
		case DownlinkNAS:
			seen = append(seen, "dlnas")
		case Packet:
			seen = append(seen, "pkt")
		default:
			t.Fatalf("frame %T fell through the demux switch", f)
		}
	}
	want := []string{"connect:imsi-1", "release:imsi-1", "ulnas", "dlnas", "pkt"}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("demux order: got %v want %v", seen, want)
		}
	}
}

func TestPacketFieldsSurviveAnyRoundTrip(t *testing.T) {
	in := Packet{
		UE: "imsi-9", SessionID: 2, Proto: 6,
		Src: [4]byte{10, 45, 0, 2}, Dst: [4]byte{93, 184, 216, 34},
		SrcPort: 40000, DstPort: 443,
		Flow: "web", Length: 1400, Meta: "example.com",
	}
	var link any = in
	out, ok := link.(Packet)
	if !ok {
		t.Fatal("Packet lost its type through the link")
	}
	if out != in {
		t.Fatalf("fields diverged: %+v vs %+v", out, in)
	}
	// Addr arrays (not slices) copy by value: the receiver's view cannot
	// be corrupted by the sender reusing its struct.
	out.Src[0] = 192
	if in.Src[0] != 10 {
		t.Fatal("Src aliased between copies")
	}
}

func TestNASFramesCarryEncodedBytes(t *testing.T) {
	payload := []byte{0x7E, 0x00, 0x41}
	up := UplinkNAS{UE: "imsi-5", Bytes: payload}
	down := DownlinkNAS{UE: "imsi-5", Bytes: payload}
	if string(up.Bytes) != string(payload) || string(down.Bytes) != string(payload) {
		t.Fatal("NAS bytes not carried verbatim")
	}
	if up.UE != down.UE {
		t.Fatal("UE demux keys differ")
	}
	// Frames of different direction must not satisfy each other's case arm
	// even with identical fields.
	var f any = up
	if _, ok := f.(DownlinkNAS); ok {
		t.Fatal("UplinkNAS asserted as DownlinkNAS")
	}
}

func TestRRCFramesAreDistinctTypes(t *testing.T) {
	var f any = RRCConnect{UE: "x"}
	if _, ok := f.(RRCRelease); ok {
		t.Fatal("RRCConnect asserted as RRCRelease")
	}
	f = RRCRelease{UE: "x"}
	if _, ok := f.(RRCConnect); ok {
		t.Fatal("RRCRelease asserted as RRCConnect")
	}
}

func TestFramePoolRecyclesAndClears(t *testing.T) {
	var p FramePool
	f := p.Get()
	if *f != (Packet{}) {
		t.Fatalf("a new frame holds %+v", *f)
	}
	*f = Packet{UE: "imsi-1", Flow: "web-req-1", Length: 600}
	p.Put(f)
	if *f != (Packet{}) {
		t.Fatalf("released frame still holds %+v", *f)
	}
	if g := p.Get(); g != f || *g != (Packet{}) {
		t.Fatalf("pool did not reuse the released frame cleanly: %p vs %p, %+v", g, f, *g)
	}
}

// The audit hook sees every frame handed out and every frame released, and
// keeps released frames off the free list (a poisoning test scribbles over
// them instead).
func TestFramePoolAudit(t *testing.T) {
	var p FramePool
	p.Put(new(Packet)) // on the free list before the audit starts
	var got, released []*Packet
	p.audit = func(f *Packet, rel bool) {
		if rel {
			released = append(released, f)
		} else {
			got = append(got, f)
		}
	}
	a, b := p.Get(), p.Get()
	p.Put(a)
	if len(got) != 2 || got[0] != a || got[1] != b || len(released) != 1 || released[0] != a {
		t.Fatalf("audit saw gets %v and releases %v, want [%p %p] and [%p]", got, released, a, b, a)
	}
	if c := p.Get(); c == a {
		t.Fatal("an audited pool handed a released frame out again")
	}
}

// A pool must not retain without bound what a burst put in flight.
func TestFramePoolIsBounded(t *testing.T) {
	var p FramePool
	for i := 0; i < 10*framePoolCap; i++ {
		p.Put(new(Packet))
	}
	if len(p.free) != framePoolCap {
		t.Fatalf("pool holds %d frames, cap %d", len(p.free), framePoolCap)
	}
}

func TestPacketCloneIsDistinct(t *testing.T) {
	f := &Packet{Flow: "x", Length: 1}
	c := f.CloneMsg().(*Packet)
	if c == f || *c != *f {
		t.Fatalf("clone %p %+v of %p %+v", c, *c, f, *f)
	}
}

// A signalling frame keeps its buffer across uses (that is the saving) and
// comes back empty; its clone shares no bytes with it, because each
// receiver of a duplicated frame recycles the buffer it was given.
func TestNASPoolKeepsBufferAndCloneIsDeep(t *testing.T) {
	var p NASPool
	f := p.Get("imsi-1")
	if len(f.Bytes) != 0 || cap(f.Bytes) < NASFrameCap {
		t.Fatalf("new frame: len %d cap %d", len(f.Bytes), cap(f.Bytes))
	}
	f.Bytes = append(f.Bytes, 0x7E, 0x00, 0x41)
	c := f.CloneMsg().(*NAS)
	if c == f || c.UE != f.UE || string(c.Bytes) != string(f.Bytes) {
		t.Fatalf("clone %+v of %+v", *c, *f)
	}
	c.Bytes[0] = 0xFF
	if f.Bytes[0] != 0x7E {
		t.Fatal("clone shares the frame's buffer")
	}
	first := &f.Bytes[0]
	p.Put(f)
	g := p.Get("imsi-2")
	if g != f || g.UE != "imsi-2" || len(g.Bytes) != 0 {
		t.Fatalf("pool did not hand the released frame back empty: %+v", *g)
	}
	if g.Bytes = append(g.Bytes, 1); &g.Bytes[0] != first {
		t.Fatal("released frame lost its buffer")
	}
	for i := 0; i < 10*framePoolCap; i++ {
		p.Put(new(NAS))
	}
	if len(p.free) != framePoolCap {
		t.Fatalf("pool holds %d frames, cap %d", len(p.free), framePoolCap)
	}
}

// The tag's three fields do not run into each other, and no tagged packet
// reads as untagged.
func TestFlowTagLayout(t *testing.T) {
	tag := NewFlowTag(FlowOwnerProbe, FlowDNS, 1<<48+5) // sequence wider than its field
	if tag.Owner() != FlowOwnerProbe || uint8(tag>>48) != FlowDNS || uint64(tag)&(1<<48-1) != 5 {
		t.Fatalf("tag %#x: owner %#x class %d seq %d", uint64(tag), tag.Owner(), uint8(tag>>48), uint64(tag)&(1<<48-1))
	}
	if NewFlowTag(2, FlowRequest, 0) == 0 || NewFlowTag(2, FlowRequest, 7) == NewFlowTag(2, FlowDNS, 7) {
		t.Fatal("tags of different flows collide")
	}
	if (FlowTag(0)).Owner() != 0 {
		t.Fatal("the zero tag has an owner")
	}
}
