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

	// injectFn and frames implement a closure-free reply path: a response
	// waits out the server latency in the request's own frame, turned
	// around and carried by the kernel's AfterArg, and the UPF takes it from
	// there. frames is where a request nobody answers is released.
	injectFn func(any) // arg: *radio.Packet
	frames   *radio.FramePool
}

// NewInternet creates the emulated internet behind net and installs it as
// the UPF's remote handler.
func NewInternet(k *sched.Kernel, net *core5g.Network) *Internet {
	in := &Internet{k: k, upf: net.UPF, frames: net.Frames, ServerLatency: 20 * time.Millisecond}
	in.injectFn = func(v any) {
		in.served++
		in.upf.Inject(v.(*radio.Packet))
	}
	net.UPF.SetRemote(in.handleUplink)
	return in
}

// Served returns the number of requests answered.
func (in *Internet) Served() int { return in.served }

// respond turns the request's frame around — addresses and ports swapped,
// the tag and the label echoed, UE and session left for the UPF to set — and
// schedules it as the reply after the server latency.
func (in *Internet) respond(f *radio.Packet, length int, meta string) {
	f.Src, f.Dst = f.Dst, f.Src
	f.SrcPort, f.DstPort = f.DstPort, f.SrcPort
	f.Length, f.Meta = length, meta
	in.k.AfterArg(in.ServerLatency, in.injectFn, f)
}

// handleUplink consumes the frame of a packet that left the carrier network:
// it comes back as the reply, or is released when the server is down.
func (in *Internet) handleUplink(f *radio.Packet) {
	switch {
	case nas.Addr(f.Dst) == core5g.PublicDNSAddr && f.Proto == nas.ProtoUDP && f.DstPort == 53:
		if in.PublicDNSDown {
			in.frames.Put(f)
			return
		}
		in.respond(f, 128, "dns-answer:"+f.Meta)
	case nas.Addr(f.Dst) == ProbeServerAddr:
		if in.ProbeServerDown {
			in.frames.Put(f)
			return
		}
		in.respond(f, 204, "probe-ok")
	default:
		in.respond(f, 1400, "app-response")
	}
}
