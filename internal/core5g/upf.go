package core5g

import (
	"time"

	"github.com/seed5g/seed/internal/nas"
	"github.com/seed5g/seed/internal/radio"
	"github.com/seed5g/seed/internal/sched"
)

// LDNSAddr is the carrier's local DNS resolver address handed to UEs by
// default — the resolver whose outages cause the DNS data-stall failures
// of §3.1.
var LDNSAddr = nas.Addr{10, 45, 0, 53}

// PublicDNSAddr is a public resolver outside the carrier network; SEED's
// DNS recovery points sessions at it when the LDNS is down.
var PublicDNSAddr = nas.Addr{8, 8, 8, 8}

// PolicyBlock is a network-side traffic policy (the misconfigurations
// behind TCP/UDP blocking reports). Zero port bounds match all ports.
type PolicyBlock struct {
	Proto    uint8 // ProtoTCP / ProtoUDP / ProtoAny
	PortLow  uint16
	PortHigh uint16
}

func (p PolicyBlock) matches(proto uint8, port uint16) bool {
	if p.Proto != nas.ProtoAny && p.Proto != proto {
		return false
	}
	if p.PortLow == 0 && p.PortHigh == 0 {
		return true
	}
	return port >= p.PortLow && port <= p.PortHigh
}

// UPFStats counts user-plane activity.
type UPFStats struct {
	UplinkPackets   int
	DownlinkPackets int
	DroppedTFT      int
	DroppedPolicy   int
	DNSQueries      int
	DNSAnswered     int
}

type upfSession struct {
	ctx *SessionCtx
	// stalled models corrupted per-session forwarding state (e.g. stale
	// gateway context after mobility): all packets drop until the session
	// is re-established, which reinstalls fresh state.
	stalled bool
}

// UPF is the user-plane function: per-session TFT enforcement, operator
// policy blocks, the carrier LDNS service, and the hand-off to the
// emulated internet.
type UPF struct {
	k   *sched.Kernel
	gnb RadioAccess

	byAddr map[nas.Addr]*upfSession

	// blocks are the per-UE policy blocks, netBlocks the network-wide
	// ones: kept apart so that the per-packet check probes the map once,
	// and not at all while no UE is blocked.
	blocks    map[string][]PolicyBlock
	netBlocks []PolicyBlock
	// ldnsDown models a carrier DNS outage: queries to the LDNS vanish.
	ldnsDown bool
	// dnsLatency is the LDNS response time.
	dnsLatency time.Duration

	// remote receives uplink packets leaving the carrier network; the
	// dataplane package installs the emulated internet here.
	remote func(radio.Packet)

	// LDNS answers wait out dnsLatency in a pooled frame carried by the
	// stored answerDNS callback.
	frames    *radio.FramePool
	answerDNS func(any) // arg: *radio.Packet

	stats UPFStats
}

// NewUPF creates the user-plane function on its network's frame pool.
func NewUPF(k *sched.Kernel, gnb RadioAccess, dnsLatency time.Duration, frames *radio.FramePool) *UPF {
	u := &UPF{
		k: k, gnb: gnb, frames: frames,
		byAddr:     make(map[nas.Addr]*upfSession),
		blocks:     make(map[string][]PolicyBlock),
		dnsLatency: dnsLatency,
	}
	u.answerDNS = func(v any) {
		f := v.(*radio.Packet)
		u.stats.DNSAnswered++
		u.Inject(*f)
		u.frames.Put(f)
	}
	return u
}

// SetRemote installs the emulated-internet handler for packets that leave
// the carrier network.
func (u *UPF) SetRemote(fn func(radio.Packet)) { u.remote = fn }

// Stats returns a copy of the counters.
func (u *UPF) Stats() UPFStats { return u.stats }

// InstallSession (re)binds a session's forwarding state.
func (u *UPF) InstallSession(ctx *SessionCtx) {
	// Fresh state either way; an address that already has an entry (a
	// modification re-installs its session) gets it in the entry it has.
	if s, okS := u.byAddr[ctx.Address]; okS {
		*s = upfSession{ctx: ctx}
		return
	}
	u.byAddr[ctx.Address] = &upfSession{ctx: ctx}
}

// RemoveSession drops forwarding state for an address.
func (u *UPF) RemoveSession(addr nas.Addr) { delete(u.byAddr, addr) }

// SessionFor returns the session context owning an address.
func (u *UPF) SessionFor(addr nas.Addr) (*SessionCtx, bool) {
	s, okS := u.byAddr[addr]
	if !okS {
		return nil, false
	}
	return s.ctx, true
}

// AddBlock installs a policy block for a UE (empty imsi = network-wide).
func (u *UPF) AddBlock(imsi string, b PolicyBlock) {
	if imsi == "" {
		u.netBlocks = append(u.netBlocks, b)
		return
	}
	u.blocks[imsi] = append(u.blocks[imsi], b)
}

// ClearBlocks removes a UE's policy blocks (empty imsi = the network-wide
// ones).
func (u *UPF) ClearBlocks(imsi string) {
	if imsi == "" {
		u.netBlocks = nil
		return
	}
	delete(u.blocks, imsi)
}

// Blocks returns the active policy blocks for a UE (including global).
func (u *UPF) Blocks(imsi string) []PolicyBlock {
	out := append([]PolicyBlock(nil), u.netBlocks...)
	return append(out, u.blocks[imsi]...)
}

// StallUE corrupts the forwarding state of all of a UE's sessions: the
// reconnection-fixable data-delivery failure class ("outdated gateway
// status in mobility", §7.1.1). Re-establishing a session clears it.
func (u *UPF) StallUE(imsi string) {
	for _, s := range u.byAddr {
		if s.ctx.IMSI == imsi {
			s.stalled = true
		}
	}
}

// StallDNN corrupts only the sessions of one data network (a failure
// confined to a single slice).
func (u *UPF) StallDNN(imsi, dnn string) {
	for _, s := range u.byAddr {
		if s.ctx.IMSI == imsi && s.ctx.DNN == dnn {
			s.stalled = true
		}
	}
}

// Stalled reports whether a UE has any stalled session.
func (u *UPF) Stalled(imsi string) bool {
	for _, s := range u.byAddr {
		if s.ctx.IMSI == imsi && s.stalled {
			return true
		}
	}
	return false
}

// SetLDNSDown toggles the carrier DNS outage.
func (u *UPF) SetLDNSDown(v bool) { u.ldnsDown = v }

// LDNSDown reports whether the carrier resolver is down.
func (u *UPF) LDNSDown() bool { return u.ldnsDown }

// blocked reports whether a network-wide or per-UE policy block matches
// the flow. It runs twice per request round trip, so it reads the block
// lists in place.
func (u *UPF) blocked(imsi string, proto uint8, port uint16) bool {
	return anyMatches(u.netBlocks, proto, port) || anyMatches(u.blocks[imsi], proto, port)
}

func anyMatches(blocks []PolicyBlock, proto uint8, port uint16) bool {
	for _, b := range blocks {
		if b.matches(proto, port) {
			return true
		}
	}
	return false
}

// HasBlock reports whether any active policy block for a UE (including
// network-wide ones) is on the given protocol. Unlike Blocks it copies
// nothing, so a predicate polled per kernel step can afford it.
func (u *UPF) HasBlock(imsi string, proto uint8) bool {
	return anyOnProto(u.netBlocks, proto) || anyOnProto(u.blocks[imsi], proto)
}

func anyOnProto(blocks []PolicyBlock, proto uint8) bool {
	for _, b := range blocks {
		if b.Proto == proto {
			return true
		}
	}
	return false
}

// HandleUplink processes a user-plane packet arriving from the gNB.
func (u *UPF) HandleUplink(pkt radio.Packet) {
	u.stats.UplinkPackets++
	sess, okS := u.byAddr[nas.Addr(pkt.Src)]
	if !okS || sess.ctx.IMSI != pkt.UE || sess.stalled {
		return
	}
	// TFT enforcement: the session's template must admit the flow.
	if !sess.ctx.Config.TFT.Admits(nas.FilterUplink, pkt.Proto, nas.Addr(pkt.Dst), pkt.DstPort) {
		u.stats.DroppedTFT++
		return
	}
	// Operator policy blocks (misconfiguration injection point).
	if u.blocked(pkt.UE, pkt.Proto, pkt.DstPort) {
		u.stats.DroppedPolicy++
		return
	}
	// Carrier LDNS service.
	if nas.Addr(pkt.Dst) == LDNSAddr && pkt.Proto == nas.ProtoUDP && pkt.DstPort == 53 {
		u.stats.DNSQueries++
		if u.ldnsDown {
			return // outage: query vanishes
		}
		u.k.AfterArg(u.dnsLatency, u.answerDNS, u.frames.Get(radio.Packet{
			UE: pkt.UE, SessionID: pkt.SessionID, Proto: nas.ProtoUDP,
			Src: pkt.Dst, Dst: pkt.Src,
			SrcPort: 53, DstPort: pkt.SrcPort,
			Tag: pkt.Tag, Flow: pkt.Flow, Length: 128, Meta: "dns-answer:" + pkt.Meta,
		}))
		return
	}
	if u.remote != nil {
		u.remote(pkt)
	}
}

// Inject delivers a downlink packet toward a UE, applying downlink TFT and
// policy checks.
func (u *UPF) Inject(pkt radio.Packet) bool {
	sess, okS := u.byAddr[nas.Addr(pkt.Dst)]
	if !okS || sess.stalled {
		return false
	}
	pkt.UE = sess.ctx.IMSI
	pkt.SessionID = sess.ctx.ID
	if !sess.ctx.Config.TFT.Admits(nas.FilterDownlink, pkt.Proto, nas.Addr(pkt.Src), pkt.SrcPort) {
		u.stats.DroppedTFT++
		return false
	}
	if u.blocked(pkt.UE, pkt.Proto, pkt.SrcPort) {
		u.stats.DroppedPolicy++
		return false
	}
	u.stats.DownlinkPackets++
	return u.gnb.SendData(pkt)
}
