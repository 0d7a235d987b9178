package core5g

import (
	"time"

	"github.com/seed5g/seed/internal/radio"
	"github.com/seed5g/seed/internal/sched"
)

// NetworkConfig holds the core's latency model.
type NetworkConfig struct {
	// Backhaul is the one-way gNB↔core latency.
	Backhaul time.Duration
	// AMFProc / SMFProc are per-message processing latencies.
	AMFProc time.Duration
	SMFProc time.Duration
	// DNSLatency is the carrier LDNS response time.
	DNSLatency time.Duration
}

// DefaultNetworkConfig mirrors the paper's testbed: a local Magma core
// with single-digit-millisecond signaling hops.
func DefaultNetworkConfig() NetworkConfig {
	return NetworkConfig{
		Backhaul:   3 * time.Millisecond,
		AMFProc:    4 * time.Millisecond,
		SMFProc:    4 * time.Millisecond,
		DNSLatency: 15 * time.Millisecond,
	}
}

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
}

// NewNetwork assembles and wires a core network on the kernel.
func NewNetwork(k *sched.Kernel, cfg NetworkConfig) *Network {
	udm := NewUDM()
	inj := NewInjector(k.Now)
	frames := new(radio.FramePool)
	gnb := NewGNB(k, cfg.Backhaul, frames)
	upf := NewUPF(k, gnb, cfg.DNSLatency, frames)
	amf := NewAMF(k, gnb, udm, inj, cfg.AMFProc)
	smf := NewSMF(k, gnb, udm, upf, inj, cfg.SMFProc)
	amf.SetSMF(smf)
	smf.SetSender(amf.SendRaw)
	gnb.SetCore(amf, upf)
	return &Network{K: k, GNB: gnb, AMF: amf, SMF: smf, UPF: upf, UDM: udm, Inj: inj, Frames: frames}
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
