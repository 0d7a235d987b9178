// Package dataplane emulates everything above the PDU session: the
// internet beyond the UPF (app servers, the public DNS resolver, the
// Android captive-portal probe server) and the five application traffic
// patterns of §7.1.2 (video, live streaming, web, navigation, edge AR)
// with their buffer depths and request cadences. The emulators feed the
// Android monitor's detection rules and, when enabled, SEED's app
// failure-report API.
package dataplane

import (
	"time"

	"github.com/seed5g/seed/internal/core5g"
	"github.com/seed5g/seed/internal/nas"
	"github.com/seed5g/seed/internal/radio"
	"github.com/seed5g/seed/internal/sched"
)

// Well-known server addresses on the emulated internet.
var (
	// ProbeServerAddr hosts connectivitycheck.gstatic.com.
	ProbeServerAddr = nas.Addr{203, 0, 113, 1}
	// AppServerAddr hosts the generic application servers.
	AppServerAddr = nas.Addr{203, 0, 113, 10}
	// EdgeServerAddr hosts the edge AR recognition service.
	EdgeServerAddr = nas.Addr{203, 0, 113, 20}
)

// Internet emulates the network beyond the carrier: it answers app
// requests, public DNS queries, and captive-portal probes.
type Internet struct {
	k   *sched.Kernel
	upf *core5g.UPF

	// ServerLatency is the app-server response time.
	ServerLatency time.Duration
	// ProbeServerDown simulates a broken probe server (the Android
	// false-positive scenario of §3.3).
	ProbeServerDown bool
	// PublicDNSDown disables the public resolver.
	PublicDNSDown bool

	served int

	// injectFn and frames implement a closure-free reply path: each
	// response waits out the server latency in a frame of the network's
	// pool carried by the kernel's AfterArg, and goes back once injected.
	injectFn func(any) // arg: *radio.Packet
	frames   *radio.FramePool
}

// NewInternet creates the emulated internet behind net and installs it as
// the UPF's remote handler.
func NewInternet(k *sched.Kernel, net *core5g.Network) *Internet {
	in := &Internet{k: k, upf: net.UPF, frames: net.Frames, ServerLatency: 20 * time.Millisecond}
	in.injectFn = func(v any) {
		p := v.(*radio.Packet)
		in.served++
		in.upf.Inject(*p)
		in.frames.Put(p)
	}
	net.UPF.SetRemote(in.handleUplink)
	return in
}

// Served returns the number of requests answered.
func (in *Internet) Served() int { return in.served }

// respond schedules the reply to pkt after the server latency.
func (in *Internet) respond(pkt *radio.Packet, length int, meta string) {
	in.k.AfterArg(in.ServerLatency, in.injectFn, in.frames.Get(radio.Packet{
		Proto: pkt.Proto, Src: pkt.Dst, Dst: pkt.Src,
		SrcPort: pkt.DstPort, DstPort: pkt.SrcPort,
		Tag: pkt.Tag, Flow: pkt.Flow, Length: length, Meta: meta,
	}))
}

func (in *Internet) handleUplink(pkt radio.Packet) {
	switch {
	case nas.Addr(pkt.Dst) == core5g.PublicDNSAddr && pkt.Proto == nas.ProtoUDP && pkt.DstPort == 53:
		if !in.PublicDNSDown {
			in.respond(&pkt, 128, "dns-answer:"+pkt.Meta)
		}
	case nas.Addr(pkt.Dst) == ProbeServerAddr:
		if !in.ProbeServerDown {
			in.respond(&pkt, 204, "probe-ok")
		}
	default:
		in.respond(&pkt, 1400, "app-response")
	}
}
