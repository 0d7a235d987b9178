package core5g

import (
	"github.com/seed5g/seed/internal/freelist"
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
	// spare are removed entries kept for the next installation.
	spare freelist.List[upfSession]

	// blocks are the per-UE policy blocks, netBlocks the network-wide
	// ones: kept apart so that the per-packet check probes the map once,
	// and not at all while no UE is blocked.
	blocks    map[string][]PolicyBlock
	netBlocks []PolicyBlock
	// ldnsDown models a carrier DNS outage: queries to the LDNS vanish.
	ldnsDown bool

	// remote receives the frames of uplink packets leaving the carrier
	// network, and owns them from then on; the dataplane package installs
	// the emulated internet here.
	remote func(*radio.Packet)

	// An LDNS answer waits out dnsLatency in the query's own frame, turned
	// around, carried by the stored answerDNS callback. frames is where
	// HandleUplink and Inject release what they do not forward.
	frames    *radio.FramePool
	answerDNS func(any) // arg: *radio.Packet

	stats UPFStats
}

// NewUPF creates the user-plane function on its network's frame pool.
func NewUPF(k *sched.Kernel, gnb RadioAccess, frames *radio.FramePool) *UPF {
	u := &UPF{
		k: k, gnb: gnb, frames: frames,
		byAddr: make(map[nas.Addr]*upfSession),
		blocks: make(map[string][]PolicyBlock),
	}
	u.answerDNS = func(v any) {
		u.stats.DNSAnswered++
		u.Inject(v.(*radio.Packet))
	}
	return u
}

// SetRemote installs the emulated-internet handler for packets that leave
// the carrier network. The handler takes over the frame it is given: it
// forwards it (back through Inject) or releases it.
func (u *UPF) SetRemote(fn func(*radio.Packet)) { u.remote = fn }

// Stats returns a copy of the counters.
func (u *UPF) Stats() UPFStats { return u.stats }

// InstallSession (re)binds a session's forwarding state.
func (u *UPF) InstallSession(ctx *SessionCtx) {
	// Fresh state either way; an address that already has an entry (a
	// modification re-installs its session) gets it in the entry it has.
	s, okS := u.byAddr[ctx.Address]
	if !okS {
		s = u.spare.Get()
		u.byAddr[ctx.Address] = s
	}
	*s = upfSession{ctx: ctx}
	u.k.Announce(sched.ForwardingInstalled, int(ctx.ID), 0)
}

// RemoveSession drops forwarding state for an address.
func (u *UPF) RemoveSession(addr nas.Addr) {
	if s, okS := u.byAddr[addr]; okS {
		delete(u.byAddr, addr)
		u.k.Announce(sched.ForwardingRemoved, int(s.ctx.ID), 0)
		u.spare.Put(s)
	}
}

// AddBlock installs a policy block for a UE (empty imsi = network-wide).
func (u *UPF) AddBlock(imsi string, b PolicyBlock) {
	if imsi == "" {
		u.netBlocks = append(u.netBlocks, b)
	} else {
		u.blocks[imsi] = append(u.blocks[imsi], b)
	}
	u.k.Announce(sched.BlockAdded, int(b.Proto), networkWide(imsi))
}

// networkWide is the operand a block transition carries for its scope.
func networkWide(imsi string) int {
	if imsi == "" {
		return 1
	}
	return 0
}

// ClearBlocks removes a UE's policy blocks (empty imsi = the network-wide
// ones).
func (u *UPF) ClearBlocks(imsi string) {
	if imsi == "" {
		u.netBlocks = nil
	} else {
		delete(u.blocks, imsi)
	}
	u.k.Announce(sched.BlocksCleared, 0, networkWide(imsi))
}

// Blocks returns the active policy blocks for a UE (including global).
func (u *UPF) Blocks(imsi string) []PolicyBlock {
	out := append([]PolicyBlock(nil), u.netBlocks...)
	return append(out, u.blocks[imsi]...)
}

// StallUE corrupts the forwarding state of all of a UE's sessions: the
// reconnection-fixable data-delivery failure class ("outdated gateway
// status in mobility", §7.1.1). Re-establishing a session clears it.
func (u *UPF) StallUE(imsi string) { u.stall(imsi, "") }

// StallDNN corrupts only the sessions of one data network (a failure
// confined to a single slice).
func (u *UPF) StallDNN(imsi, dnn string) { u.stall(imsi, dnn) }

// stall marks the UE's sessions on dnn ("": on any) and announces how many
// there were — once, not per session: the map's order must not show in a
// timeline.
func (u *UPF) stall(imsi, dnn string) {
	n := 0
	for _, s := range u.byAddr {
		if s.ctx.IMSI == imsi && (dnn == "" || s.ctx.DNN == dnn) {
			s.stalled = true
			n++
		}
	}
	if n > 0 {
		u.k.Announce(sched.ForwardingStalled, n, 0)
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
func (u *UPF) SetLDNSDown(v bool) {
	if u.ldnsDown == v {
		return
	}
	u.ldnsDown = v
	down := 0
	if v {
		down = 1
	}
	u.k.Announce(sched.LDNSChanged, down, 0)
}

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
// network-wide ones) is on the given protocol, reading the lists in place.
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

// HandleUplink processes a user-plane frame arriving from the gNB and
// consumes it: the frame goes on to the emulated internet, turns around as
// the carrier resolver's answer, or — on every path that drops the packet —
// back to the pool.
func (u *UPF) HandleUplink(f *radio.Packet) {
	u.stats.UplinkPackets++
	sess, okS := u.byAddr[nas.Addr(f.Src)]
	if !okS || sess.ctx.IMSI != f.UE || sess.stalled {
		u.frames.Put(f)
		return
	}
	// TFT enforcement: the session's template must admit the flow.
	if !sess.ctx.Config.TFT.Admits(nas.FilterUplink, f.Proto, nas.Addr(f.Dst), f.DstPort) {
		u.stats.DroppedTFT++
		u.frames.Put(f)
		return
	}
	// Operator policy blocks (misconfiguration injection point).
	if u.blocked(f.UE, f.Proto, f.DstPort) {
		u.stats.DroppedPolicy++
		u.frames.Put(f)
		return
	}
	// Carrier LDNS service.
	if nas.Addr(f.Dst) == LDNSAddr && f.Proto == nas.ProtoUDP && f.DstPort == 53 {
		u.stats.DNSQueries++
		if u.ldnsDown {
			u.frames.Put(f) // outage: query vanishes
			return
		}
		// The answer rides the query's frame: same UE, session, tag.
		f.Src, f.Dst = f.Dst, f.Src
		f.SrcPort, f.DstPort = 53, f.SrcPort
		f.Length, f.Meta = 128, "dns-answer:"+f.Meta
		u.k.AfterArg(dnsLatency, u.answerDNS, f)
		return
	}
	if u.remote == nil {
		u.frames.Put(f)
		return
	}
	u.remote(f)
}

// Inject delivers a downlink frame toward a UE, applying downlink TFT and
// policy checks. It consumes the frame: handed to the radio access network
// when it reports true, released otherwise.
func (u *UPF) Inject(f *radio.Packet) bool {
	sess, okS := u.byAddr[nas.Addr(f.Dst)]
	if !okS || sess.stalled {
		u.frames.Put(f)
		return false
	}
	f.UE = sess.ctx.IMSI
	f.SessionID = sess.ctx.ID
	if !sess.ctx.Config.TFT.Admits(nas.FilterDownlink, f.Proto, nas.Addr(f.Src), f.SrcPort) {
		u.stats.DroppedTFT++
		u.frames.Put(f)
		return false
	}
	if u.blocked(f.UE, f.Proto, f.SrcPort) {
		u.stats.DroppedPolicy++
		u.frames.Put(f)
		return false
	}
	u.stats.DownlinkPackets++
	return u.gnb.SendData(f)
}
