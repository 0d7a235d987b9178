// Package radio defines the frame types exchanged over the emulated radio
// link between the modem and the gNB. NAS payloads travel as encoded bytes
// (the nas package's wire format) so the full codec path is exercised on
// every signaling exchange; user-plane traffic travels as Packet frames.
package radio

// UplinkNAS carries an encoded NAS message from a UE to the network. It is
// the by-value form tests and injectors hand to a handler; the modem and
// the core exchange the pooled *NAS.
type UplinkNAS struct {
	UE    string // IMSI-keyed UE identifier for demux at the gNB
	Bytes []byte
}

// DownlinkNAS carries an encoded NAS message from the network to a UE (the
// by-value form, like UplinkNAS).
type DownlinkNAS struct {
	UE    string
	Bytes []byte
}

// RRCConnect signals UE radio connection establishment to the gNB.
type RRCConnect struct {
	UE string
}

// RRCRelease signals radio connection release (either side).
type RRCRelease struct {
	UE string
}

// Packet is a user-plane datagram on an established PDU session.
type Packet struct {
	UE        string
	SessionID uint8
	// Proto is the IP protocol (6 TCP, 17 UDP).
	Proto uint8
	// Src/Dst are IPv4 addresses; for uplink Src is the UE address.
	Src, Dst [4]byte
	// SrcPort/DstPort are transport ports.
	SrcPort, DstPort uint16
	// Tag is the flow the traffic emulators match replies by; servers echo
	// it.
	Tag FlowTag
	// Flow is a free-form label for hand-built packets. The emulators carry
	// it and never read it; it stays only because benchmark/adapter.go
	// builds labelled packets for its link probe (ROADMAP item 15 unpins the
	// benchmark's surface, and the field goes with that).
	Flow string
	// Payload length in bytes (contents are not modelled).
	Length int
	// Meta carries emulator-specific data (e.g. DNS query names).
	Meta string
}

// FlowTag names the flow a packet belongs to as an integer, so that an
// emulator matches a reply to its outstanding request without building or
// hashing a string: the owner in the top byte (an app's kind + 1, or
// FlowOwnerProbe; 0 means untagged), the class in the next (FlowRequest or
// FlowDNS), and the owner's sequence number in the low 48 bits.
type FlowTag uint64

const (
	// FlowOwnerProbe is the owner byte of the device's connectivity probe.
	FlowOwnerProbe uint8 = 0xFF

	FlowRequest uint8 = 1 // an app request or a probe
	FlowDNS     uint8 = 2 // a DNS query
)

// NewFlowTag packs a tag.
func NewFlowTag(owner, class uint8, seq int) FlowTag {
	return FlowTag(owner)<<56 | FlowTag(class)<<48 | FlowTag(seq)&(1<<48-1)
}

// Owner returns the tag's owner byte.
func (t FlowTag) Owner() uint8 { return uint8(t >> 56) }

// User-plane frames cross the emulated links as *Packet taken from a
// FramePool, so a packet costs no allocation per hop — and one frame per
// round trip: a request is born in the frame the modem copies it into, and
// its reply rides that same frame back. A frame has exactly one owner at a
// time:
//
//   - the modem takes it (Get) and fills it from the sender's scratch; the
//     radio link owns it once it accepted it, and a sender whose link
//     refused the frame releases it;
//   - while in flight it belongs to the kernel event carrying it (which
//     makes it a snapshot root, so a restored prototype replays the frame's
//     content, not just its pointer);
//   - the gNB, the UPF (HandleUplink, Inject), the emulated internet and
//     the radio access network's SendData each consume the frame they are
//     handed: they pass it on, or — on every path that drops the packet —
//     release it, exactly once;
//   - whoever answers a request (the carrier resolver, the public resolver,
//     the probe server, an app server) turns its frame around in place and
//     sends that;
//   - on the device the modem owns the delivered frame: Hooks.OnDownlinkData,
//     Mux.Dispatch, App.HandleDownlink and Mux.OnUnclaimed borrow the
//     pointer for the call and keep nothing of it, and the modem releases
//     the frame after the last of them returned.
//
// Dropping a frame instead of releasing it is always safe (the collector
// takes it); releasing one twice never is.

// framePoolCap bounds a pool: what a burst put in flight beyond it is left
// to the collector rather than retained.
const framePoolCap = 16

// FramePool is a free list of user-plane frames. A testbed has one
// (core5g.Network owns it), which every actor on the user plane — modems,
// gNBs, UPF, the emulated internet — takes from and returns to: they all
// run on the testbed's one single-threaded kernel, so the pool needs no
// locks, and whichever direction the traffic flows, the frame a receiver
// releases is the one the next sender takes. The snapshot engine reaches
// it through any of them and rewinds it once.
type FramePool struct {
	free []*Packet

	// audit, when set, sees every frame handed out (released false) and
	// every frame released, the latter instead of the free list. Tests
	// count and poison through it.
	audit func(f *Packet, released bool)
}

// Get returns an empty frame, which the caller owns.
func (p *FramePool) Get() *Packet {
	var f *Packet
	if n := len(p.free); n > 0 {
		f = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
	} else {
		f = new(Packet)
	}
	if p.audit != nil {
		p.audit(f, false)
	}
	return f
}

// Put releases a frame the caller owns. The content is cleared so a
// pooled frame pins no flow strings.
func (p *FramePool) Put(f *Packet) {
	if p.audit != nil {
		p.audit(f, true)
		return
	}
	if len(p.free) >= framePoolCap {
		return
	}
	*f = Packet{}
	p.free = append(p.free, f)
}

// CloneMsg implements netemu's duplicate-delivery hook: a link that
// delivers a frame twice must hand the second receiver a frame of its
// own, because the first receiver consumes the one it was given.
func (p *Packet) CloneMsg() any {
	c := *p
	return &c
}

// NAS is a signalling frame in its pooled form, under the ownership rule
// above: the sender takes it from the testbed's NASPool and encodes into
// Bytes, the receiver decodes and releases it. One type serves both
// directions (the link a frame is on tells them apart). Bytes is the
// frame's own buffer and is reused with it, which is safe because the NAS
// decoders copy everything they keep: a decoded message never aliases the
// frame it arrived in.
type NAS struct {
	UE    string
	Bytes []byte
}

// NASFrameCap is a new frame's buffer: the largest message on the testbed
// (a protected DIAG report, a 100-byte DNN plus headers) fits, so a frame
// does not grow. An endpoint's encoding scratch is sized the same.
const NASFrameCap = 128

// NASPool is the free list of signalling frames. Like the FramePool a
// testbed has one (core5g.Network owns it) that the modems, the gNBs and
// the AMF share. A pool per actor drains: signalling is not symmetric (a
// registration is three uplinks for two downlinks, a rejected session
// request one for one but a reboot strands what was in flight), so the
// modem's frames ended in the AMF's pool and the modem allocated new ones,
// 4.1 per corpus cell.
type NASPool struct {
	free []*NAS
}

// Get returns an empty frame for ue; its Bytes has length 0 and whatever
// capacity the frame's earlier uses grew.
func (p *NASPool) Get(ue string) *NAS {
	var f *NAS
	if n := len(p.free); n > 0 {
		f = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
	} else {
		f = &NAS{Bytes: make([]byte, 0, NASFrameCap)}
	}
	f.UE = ue
	return f
}

// Warm grows the pool to at least n free frames (see sched.Kernel.Warm).
func (p *NASPool) Warm(n int) {
	for len(p.free) < n {
		p.free = append(p.free, &NAS{Bytes: make([]byte, 0, NASFrameCap)})
	}
}

// Put releases a frame the caller owns, keeping its buffer.
func (p *NASPool) Put(f *NAS) {
	if len(p.free) >= framePoolCap {
		return
	}
	f.UE, f.Bytes = "", f.Bytes[:0]
	p.free = append(p.free, f)
}

// CloneMsg implements netemu's duplicate-delivery hook with a deep copy:
// each receiver recycles the buffer of the frame it was given.
func (f *NAS) CloneMsg() any {
	return &NAS{UE: f.UE, Bytes: append([]byte(nil), f.Bytes...)}
}
