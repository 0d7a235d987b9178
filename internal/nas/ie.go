package nas

import (
	"fmt"
	"strings"
)

// IdentityType discriminates 5GS mobile identity encodings.
type IdentityType uint8

const (
	// IdentityNone marks an absent identity.
	IdentityNone IdentityType = 0
	// IdentitySUCI is the concealed subscription identifier.
	IdentitySUCI IdentityType = 1
	// IdentityGUTI is the temporary identifier assigned by the AMF.
	IdentityGUTI IdentityType = 2
	// IdentityIMEI is the equipment identity.
	IdentityIMEI IdentityType = 3
)

func (t IdentityType) String() string {
	switch t {
	case IdentityNone:
		return "none"
	case IdentitySUCI:
		return "SUCI"
	case IdentityGUTI:
		return "5G-GUTI"
	case IdentityIMEI:
		return "IMEI"
	default:
		return fmt.Sprintf("IdentityType(%d)", uint8(t))
	}
}

// MobileIdentity is the 5GS mobile identity IE (TS 24.501 §9.11.3.4).
type MobileIdentity struct {
	Type  IdentityType
	Value string
}

func (m MobileIdentity) encode(w *writer) {
	w.byte(byte(m.Type))
	w.lvString(m.Value)
}

func decodeMobileIdentity(r *reader) MobileIdentity {
	t := IdentityType(r.byte())
	v := r.lv()
	return MobileIdentity{Type: t, Value: r.str(v)}
}

func (m MobileIdentity) String() string {
	return fmt.Sprintf("%s:%s", m.Type, m.Value)
}

// SNSSAI is single network slice selection assistance information.
type SNSSAI struct {
	SST uint8   // slice/service type
	SD  [3]byte // slice differentiator
}

func (s SNSSAI) encode(w *writer) {
	w.byte(s.SST)
	w.raw(s.SD[:])
}

func decodeSNSSAI(r *reader) SNSSAI {
	var s SNSSAI
	s.SST = r.byte()
	copy(s.SD[:], r.take(3))
	return s
}

const snssaiWireLen = 4

// TAI is a tracking area identity (PLMN + TAC).
type TAI struct {
	PLMN uint32 // packed MCC/MNC
	TAC  uint32 // tracking area code
}

func (t TAI) encode(w *writer) {
	w.uint32(t.PLMN)
	w.uint32(t.TAC)
}

func decodeTAI(r *reader) TAI {
	return TAI{PLMN: r.uint32(), TAC: r.uint32()}
}

const taiWireLen = 8

// PDUSessionType selects the PDU session's payload type.
type PDUSessionType uint8

const (
	SessionIPv4         PDUSessionType = 1
	SessionIPv6         PDUSessionType = 2
	SessionIPv4v6       PDUSessionType = 3
	SessionUnstructured PDUSessionType = 4
	SessionEthernet     PDUSessionType = 5
)

func (t PDUSessionType) String() string {
	switch t {
	case SessionIPv4:
		return "IPv4"
	case SessionIPv6:
		return "IPv6"
	case SessionIPv4v6:
		return "IPv4v6"
	case SessionUnstructured:
		return "Unstructured"
	case SessionEthernet:
		return "Ethernet"
	default:
		return fmt.Sprintf("PDUSessionType(%d)", uint8(t))
	}
}

// Addr is an IPv4 address as carried in the PDU address IE and DNS IEs.
type Addr [4]byte

func (a Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", a[0], a[1], a[2], a[3])
}

// IsZero reports whether the address is unset.
func (a Addr) IsZero() bool { return a == Addr{} }

// Word packs the address into an integer, first byte highest: the form in
// which a sched.Transition operand carries a resolver. AddrOfWord unpacks it.
func (a Addr) Word() int { return int(a[0])<<24 | int(a[1])<<16 | int(a[2])<<8 | int(a[3]) }

// AddrOfWord is the inverse of Addr.Word.
func AddrOfWord(w int) Addr { return Addr{byte(w >> 24), byte(w >> 16), byte(w >> 8), byte(w)} }

// FilterDirection constrains which traffic a packet filter matches.
type FilterDirection uint8

const (
	FilterUplink        FilterDirection = 1
	FilterDownlink      FilterDirection = 2
	FilterBidirectional FilterDirection = 3
)

func (d FilterDirection) String() string {
	switch d {
	case FilterUplink:
		return "uplink"
	case FilterDownlink:
		return "downlink"
	case FilterBidirectional:
		return "bidirectional"
	default:
		return fmt.Sprintf("FilterDirection(%d)", uint8(d))
	}
}

// IP protocol numbers used by packet filters.
const (
	ProtoAny uint8 = 0
	ProtoTCP uint8 = 6
	ProtoUDP uint8 = 17
)

// PacketFilter is one component of a traffic flow template. A zero
// RemoteAddr matches any address; PortLow==PortHigh==0 matches any port.
type PacketFilter struct {
	Direction  FilterDirection
	Protocol   uint8
	RemoteAddr Addr
	PortLow    uint16
	PortHigh   uint16
}

func (f PacketFilter) encode(w *writer) {
	w.byte(byte(f.Direction))
	w.byte(f.Protocol)
	w.raw(f.RemoteAddr[:])
	w.uint16(f.PortLow)
	w.uint16(f.PortHigh)
}

func decodePacketFilter(r *reader) PacketFilter {
	var f PacketFilter
	f.Direction = FilterDirection(r.byte())
	f.Protocol = r.byte()
	copy(f.RemoteAddr[:], r.take(4))
	f.PortLow = r.uint16()
	f.PortHigh = r.uint16()
	return f
}

// Matches reports whether the filter matches a flow with the given
// protocol, remote address and remote port in direction dir.
func (f PacketFilter) Matches(dir FilterDirection, proto uint8, remote Addr, port uint16) bool {
	if f.Direction != FilterBidirectional && f.Direction != dir {
		return false
	}
	if f.Protocol != ProtoAny && f.Protocol != proto {
		return false
	}
	if !f.RemoteAddr.IsZero() && f.RemoteAddr != remote {
		return false
	}
	if f.PortLow != 0 || f.PortHigh != 0 {
		if port < f.PortLow || port > f.PortHigh {
			return false
		}
	}
	return true
}

func (f PacketFilter) String() string {
	proto := "any"
	switch f.Protocol {
	case ProtoTCP:
		proto = "tcp"
	case ProtoUDP:
		proto = "udp"
	}
	return fmt.Sprintf("%s/%s %s:%d-%d", f.Direction, proto, f.RemoteAddr, f.PortLow, f.PortHigh)
}

// TFT is a traffic flow template: the ordered set of packet filters the
// UPF applies to the session. An empty TFT admits all traffic.
type TFT struct {
	Filters []PacketFilter
}

func (t TFT) encode(w *writer) {
	w.byte(byte(len(t.Filters)))
	for _, f := range t.Filters {
		f.encode(w)
	}
}

// decode reads the template into t, reusing the capacity of its filter
// list.
func (t *TFT) decode(r *reader) {
	n := int(r.byte())
	t.Filters = t.Filters[:0]
	for i := 0; i < n && r.err == nil; i++ {
		t.Filters = append(t.Filters, decodePacketFilter(r))
	}
}

// Admits reports whether the TFT allows a flow. An empty filter set admits
// everything (match-all default per TS 24.008 when no TFT is present).
func (t TFT) Admits(dir FilterDirection, proto uint8, remote Addr, port uint16) bool {
	if len(t.Filters) == 0 {
		return true
	}
	for _, f := range t.Filters {
		if f.Matches(dir, proto, remote, port) {
			return true
		}
	}
	return false
}

func (t TFT) String() string {
	if len(t.Filters) == 0 {
		return "TFT{match-all}"
	}
	parts := make([]string, len(t.Filters))
	for i, f := range t.Filters {
		parts[i] = f.String()
	}
	return "TFT{" + strings.Join(parts, "; ") + "}"
}

// QoS carries the authorized QoS parameters of a session.
type QoS struct {
	FiveQI     uint8
	UplinkKbps uint32
	DownKbps   uint32
}

func (q QoS) encode(w *writer) {
	w.byte(q.FiveQI)
	w.uint32(q.UplinkKbps)
	w.uint32(q.DownKbps)
}

func decodeQoS(r *reader) QoS {
	return QoS{FiveQI: r.byte(), UplinkKbps: r.uint32(), DownKbps: r.uint32()}
}

const qosWireLen = 9

// MaxDNNLen is the maximum DNN length (TS 23.003 §9.1 limits the APN/DNN
// to 100 octets). SEED's uplink reports rely on this budget.
const MaxDNNLen = 100

// ValidDNN reports whether s fits the DNN field.
func ValidDNN(s string) bool { return len(s) > 0 && len(s) <= MaxDNNLen }
