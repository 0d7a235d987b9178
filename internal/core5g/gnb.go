package core5g

import (
	"math/bits"

	"github.com/seed5g/seed/internal/radio"
	"github.com/seed5g/seed/internal/sched"
)

// RadioAccess is the downlink interface the core functions use to reach
// UEs. A single GNB implements it directly; the Cells manager implements
// it by routing to each UE's serving cell.
type RadioAccess interface {
	// SendNAS delivers a downlink NAS frame to its UE. The frame is the
	// link's once accepted; on false it is still the caller's.
	SendNAS(f *radio.NAS) bool
	// SendData delivers a downlink user-plane frame to its UE and consumes
	// it: on false the frame was released, not handed to a link.
	SendData(f *radio.Packet) bool
	// AddBearer installs a radio bearer for a UE session.
	AddBearer(imsi string, sessionID uint8)
	// RemoveBearer tears down a bearer.
	RemoveBearer(imsi string, sessionID uint8)
}

// GNB is the emulated base station. It demuxes uplink frames per UE,
// relays NAS to the AMF over the backhaul, forwards user-plane packets to
// the UPF, and tracks radio bearers — releasing the RRC connection (and
// telling the AMF to drop the UE context) when the *last* data bearer
// goes away, the behaviour that forces a full control-plane reattach and
// that SEED's Figure 6 "DIAG session" trick sidesteps.
type GNB struct {
	k   *sched.Kernel
	amf *AMF
	upf *UPF

	ues map[string]*ueRadio
	// lastIMSI and lastUE remember the latest hit in ues: user-plane
	// packets come in runs from one UE, and the lookup is per packet.
	// AttachUE and DetachUE forget it.
	lastIMSI string
	lastUE   *ueRadio

	// User-plane frames (see radio.FramePool for the ownership rule): an
	// uplink frame rides the backhaul hop as the argument of the stored
	// toUPF callback and is the UPF's from there; the gNB releases into
	// frames only what it drops itself, in either direction.
	frames *radio.FramePool
	toUPF  func(any) // arg: *radio.Packet
	// A signalling frame rides the backhaul the same way, as the argument
	// of toAMF; the AMF releases it into nasFrames, the network's pool.
	nasFrames *radio.NASPool
	toAMF     func(any) // arg: *radio.NAS
}

type ueRadio struct {
	tx        func(any) bool
	connected bool
	bearers   bearerSet
}

// bearerSet holds the session IDs a UE has a radio bearer for, one bit
// each: every user-plane packet asks, in both directions.
type bearerSet [4]uint64

func (b *bearerSet) add(id uint8)     { b[id>>6] |= 1 << (id & 63) }
func (b *bearerSet) remove(id uint8)  { b[id>>6] &^= 1 << (id & 63) }
func (b bearerSet) has(id uint8) bool { return b[id>>6]&(1<<(id&63)) != 0 }

func (b bearerSet) count() int {
	return bits.OnesCount64(b[0]) + bits.OnesCount64(b[1]) + bits.OnesCount64(b[2]) + bits.OnesCount64(b[3])
}

// NewGNB creates a gNB on its network's frame pools. Wire the AMF and UPF with SetCore
// before delivering traffic.
func NewGNB(k *sched.Kernel, frames *radio.FramePool, nasFrames *radio.NASPool) *GNB {
	g := &GNB{k: k, ues: make(map[string]*ueRadio), frames: frames, nasFrames: nasFrames}
	g.toUPF = func(v any) { g.upf.HandleUplink(v.(*radio.Packet)) }
	g.toAMF = func(v any) { g.amf.handleUplinkFrame(v.(*radio.NAS)) }
	return g
}

// SetCore wires the core-network functions.
func (g *GNB) SetCore(amf *AMF, upf *UPF) {
	g.amf = amf
	g.upf = upf
}

// AttachUE registers a UE's downlink transmit function (the device side of
// its radio link).
func (g *GNB) AttachUE(imsi string, tx func(any) bool) {
	g.ues[imsi] = &ueRadio{tx: tx}
	g.lastUE = nil
}

// DetachUE removes a UE from the cell.
func (g *GNB) DetachUE(imsi string) {
	delete(g.ues, imsi)
	g.lastUE = nil
}

// ue looks a UE's radio state up, through the last-hit cache.
func (g *GNB) ue(imsi string) (*ueRadio, bool) {
	if g.lastUE != nil && g.lastIMSI == imsi {
		return g.lastUE, true
	}
	ue, okU := g.ues[imsi]
	if okU {
		g.lastIMSI, g.lastUE = imsi, ue
	}
	return ue, okU
}

// HandleUplink processes a frame arriving on the radio interface.
func (g *GNB) HandleUplink(frame any) {
	switch f := frame.(type) {
	case radio.RRCConnect:
		if ue, okU := g.ue(f.UE); okU {
			ue.connected = true
		}
	case radio.RRCRelease:
		if ue, okU := g.ue(f.UE); okU {
			ue.connected = false
		}
	case *radio.NAS:
		g.uplinkNAS(f)
	case radio.UplinkNAS:
		// The sender keeps its bytes; the frame gets a copy.
		nf := g.nasFrames.Get(f.UE)
		nf.Bytes = append(nf.Bytes, f.Bytes...)
		g.uplinkNAS(nf)
	case *radio.Packet:
		g.uplinkData(f)
	case radio.Packet:
		// A hand-built packet (tests, injectors): the frame gets a copy.
		pf := g.frames.Get()
		*pf = f
		g.uplinkData(pf)
	}
}

// uplinkNAS relays a signalling frame this gNB now owns to the AMF over the
// backhaul, or drops it when the UE is unknown.
func (g *GNB) uplinkNAS(f *radio.NAS) {
	ue, okU := g.ue(f.UE)
	if !okU {
		g.nasFrames.Put(f)
		return
	}
	ue.connected = true // NAS implies signalling connection
	g.k.AfterArg(backhaul, g.toAMF, f)
}

// uplinkData forwards a user-plane frame this gNB now owns to the UPF
// over the backhaul, or drops it when the UE has no bearer for it.
func (g *GNB) uplinkData(f *radio.Packet) {
	ue, okU := g.ue(f.UE)
	if !okU || !ue.connected || !ue.bearers.has(f.SessionID) {
		g.frames.Put(f)
		return
	}
	g.k.AfterArg(backhaul, g.toUPF, f)
}

// SendNAS delivers a downlink NAS frame to its UE.
func (g *GNB) SendNAS(f *radio.NAS) bool {
	ue, okU := g.ue(f.UE)
	return okU && ue.tx(f)
}

// SendData delivers a downlink user-plane frame to a UE, or releases it:
// packets for an unknown UE or a session without a bearer are dropped, and
// so is what the radio link refuses.
func (g *GNB) SendData(f *radio.Packet) bool {
	ue, okU := g.ue(f.UE)
	if !okU || !ue.bearers.has(f.SessionID) || !ue.tx(f) {
		g.frames.Put(f)
		return false
	}
	return true
}

// AddBearer installs a radio bearer for a UE session.
func (g *GNB) AddBearer(imsi string, sessionID uint8) {
	if ue, okU := g.ue(imsi); okU {
		ue.bearers.add(sessionID)
	}
}

// RemoveBearer tears down a bearer. When it was the UE's last bearer the
// gNB releases the RRC connection and asks the AMF to drop the UE context
// — the reattach-forcing behaviour of §4.4.1.
func (g *GNB) RemoveBearer(imsi string, sessionID uint8) {
	ue, okU := g.ue(imsi)
	if !okU {
		return
	}
	ue.bearers.remove(sessionID)
	if ue.bearers.count() == 0 && ue.connected {
		ue.connected = false
		ue.tx(radio.RRCRelease{UE: imsi})
		g.k.After(backhaul, func() { g.amf.DropUEContext(imsi) })
	}
}

// Bearers returns the UE's active bearer session IDs in ascending order.
func (g *GNB) Bearers(imsi string) []uint8 {
	ue, okU := g.ue(imsi)
	if !okU {
		return nil
	}
	out := make([]uint8, 0, ue.bearers.count())
	for id := 0; id < 256; id++ {
		if ue.bearers.has(uint8(id)) {
			out = append(out, uint8(id))
		}
	}
	return out
}

// setConnected forces the RRC state (used by handover, which keeps the
// connection alive across cells).
func (g *GNB) setConnected(imsi string, v bool) {
	if ue, okU := g.ue(imsi); okU {
		ue.connected = v
	}
}

// BearerCount returns the number of active bearers for a UE.
func (g *GNB) BearerCount(imsi string) int {
	if ue, okU := g.ue(imsi); okU {
		return ue.bearers.count()
	}
	return 0
}

// Connected reports whether the UE has an RRC connection.
func (g *GNB) Connected(imsi string) bool {
	ue, okU := g.ue(imsi)
	return okU && ue.connected
}
