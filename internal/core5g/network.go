package core5g

import (
	"time"

	"github.com/seed5g/seed/internal/nas"
	"github.com/seed5g/seed/internal/radio"
	"github.com/seed5g/seed/internal/sched"
)

// The core's latency model mirrors the paper's testbed: a local Magma core
// with single-digit-millisecond signalling hops.
const (
	// backhaul is the one-way gNB↔core latency.
	backhaul = 3 * time.Millisecond
	// amfProc and smfProc are per-message processing latencies.
	amfProc = 4 * time.Millisecond
	smfProc = 4 * time.Millisecond
	// dnsLatency is the carrier LDNS response time.
	dnsLatency = 15 * time.Millisecond
)

// Network bundles the emulated 5G core: gNB, AMF, SMF, UPF, UDM, and the
// failure injector.
type Network struct {
	K   *sched.Kernel
	GNB *GNB
	AMF *AMF
	SMF *SMF
	UPF *UPF
	UDM *UDM
	Inj *Injector
	// Frames is the testbed's one user-plane frame pool (see
	// radio.FramePool): the gNBs and the UPF are built on it, and so is
	// whatever attaches to the network — modems, the emulated internet.
	Frames *radio.FramePool
	// NASFrames and Messages are the testbed's one signalling frame pool
	// and its one free list of decoded messages (see radio.NASPool and
	// nas.Pool, which also keeps the last expanded integrity key), shared
	// the same way.
	NASFrames *radio.NASPool
	Messages  *nas.Pool
}

// NewNetwork assembles and wires a core network on the kernel.
func NewNetwork(k *sched.Kernel) *Network {
	udm := NewUDM()
	inj := NewInjector(k.Now)
	n := &Network{K: k, UDM: udm, Inj: inj,
		Frames: new(radio.FramePool), NASFrames: new(radio.NASPool), Messages: new(nas.Pool)}
	n.GNB = NewGNB(k, n.Frames, n.NASFrames)
	n.UPF = NewUPF(k, n.GNB, n.Frames)
	n.AMF = NewAMF(k, n.GNB, udm, inj, n.NASFrames, n.Messages)
	n.SMF = NewSMF(k, n.GNB, udm, n.UPF, inj, n.Messages)
	n.AMF.SetSMF(n.SMF)
	n.SMF.SetSender(n.AMF.SendRaw)
	n.GNB.SetCore(n.AMF, n.UPF)
	return n
}

// Free-list sizes Warm fills to: what one device's signalling has in flight
// at its busiest (a registration's uplinks and downlinks overlapping a
// diagnosis delivery). With the messages about 1.5 KB per testbed.
const (
	warmNASFrames = 4
	warmHops      = 2
	warmSessions  = 2 // a data session and a DIAG one
)

// Warm fills the signalling free lists — frames, decoded messages, hop
// records, the AMF's spare UE context, encoding scratch and next GUTIs,
// the SMF's and the UPF's spare sessions and per-UE session maps, room
// for the injector's rules — so that a testbed snapshotted afterwards (a
// prototype) hands every restored cell full pools: a restore rewinds the
// lists to what the snapshot saw, and a list snapshotted empty is
// allocated again, object by object, in every cell.
func (n *Network) Warm() {
	n.NASFrames.Warm(warmNASFrames)
	n.Messages.Warm()
	n.AMF.hops.Warm(warmHops)
	n.SMF.hops.Warm(warmHops)
	if n.AMF.spare == nil {
		n.AMF.spare = new(UEContext)
	}
	n.AMF.warmGUTIs()
	n.SMF.warm(n.UDM)
	if cap(n.Inj.rules) == 0 {
		n.Inj.rules = make([]*RejectRule, 0, 2)
	}
	n.UPF.spare.Warm(warmSessions)
	if cap(n.AMF.encScratch) == 0 {
		n.AMF.encScratch = make([]byte, 0, radio.NASFrameCap)
	}
}

// SetRadioAccess re-wires the core functions' downlink path (used when a
// multi-cell deployment replaces the single gNB with a router).
func (n *Network) SetRadioAccess(r RadioAccess) {
	n.AMF.gnb = r
	n.SMF.gnb = r
	n.UPF.gnb = r
}

// SignalingLoad returns the total NAS messages processed by the core —
// the input to the CPU utilization model of Figure 11a.
func (n *Network) SignalingLoad() int {
	return n.AMF.Stats().MessagesIn + n.AMF.Stats().MessagesOut + n.SMF.Stats().MessagesIn
}
