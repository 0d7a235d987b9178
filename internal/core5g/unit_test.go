package core5g

import (
	"testing"
	"time"

	"github.com/seed5g/seed/internal/crypto5g"
	"github.com/seed5g/seed/internal/nas"
	"github.com/seed5g/seed/internal/radio"
	"github.com/seed5g/seed/internal/sched"
)

func TestUDMSubscriberValidation(t *testing.T) {
	u := NewUDM()
	sub := &Subscriber{IMSI: "1", DefaultDNN: "internet"}
	if err := u.AddSubscriber(sub); err == nil {
		t.Fatal("accepted default DNN without a session config")
	}
	sub.Sessions = map[string]SessionConfig{"internet": {}}
	if err := u.AddSubscriber(sub); err != nil {
		t.Fatal(err)
	}
	if err := u.AddSubscriber(sub); err == nil {
		t.Fatal("accepted duplicate IMSI")
	}
	if u.Count() != 1 {
		t.Fatalf("count = %d", u.Count())
	}
	if _, okS := u.Subscriber("nope"); okS {
		t.Fatal("found missing subscriber")
	}
}

func TestUDMAuthVectorAndResync(t *testing.T) {
	u := NewUDM()
	var k, op [16]byte
	copy(k[:], "k-material-0 pad")
	copy(op[:], "op-material-0pad")
	sub := &Subscriber{IMSI: "1", K: k, OP: op, Sessions: map[string]SessionConfig{}}
	if err := u.AddSubscriber(sub); err != nil {
		t.Fatal(err)
	}
	var rnd [16]byte
	rnd[0] = 1
	av1, err := u.GenerateAuthVector("1", rnd)
	if err != nil {
		t.Fatal(err)
	}
	av2, err := u.GenerateAuthVector("1", rnd)
	if err != nil {
		t.Fatal(err)
	}
	// SQN advances: same RAND yields a different AUTN (SQN⊕AK differs).
	if av1.AUTN == av2.AUTN {
		t.Fatal("SQN did not advance across vectors")
	}
	if av1.XRES != av2.XRES || av1.IK != av2.IK {
		t.Fatal("RES/IK should depend only on RAND")
	}
	if _, err := u.GenerateAuthVector("none", rnd); err == nil {
		t.Fatal("vector for unknown subscriber")
	}

	// Resynchronize fast-forwards the SQN to the SIM's value.
	mil, _ := crypto5g.NewMilenage(k[:], op[:])
	akStar := mil.F5Star(rnd)
	_, macS := mil.F1(rnd, 5000, [2]byte{0x80, 0})
	auts := crypto5g.AUTS(5000, akStar, macS)
	if err := u.Resynchronize("1", rnd, auts[:]); err != nil {
		t.Fatal(err)
	}
	if sub.sqn != 5000 {
		t.Fatalf("sqn after resync = %d", sub.sqn)
	}
	if err := u.Resynchronize("1", rnd, []byte{1}); err == nil {
		t.Fatal("accepted short AUTS")
	}
	if err := u.Resynchronize("none", rnd, auts[:]); err == nil {
		t.Fatal("resync for unknown subscriber")
	}
}

func TestSubscriberPolicyChecks(t *testing.T) {
	s := &Subscriber{AllowedDNNs: []string{"a", "b"}, AllowedSST: []uint8{1, 3}}
	if !s.AllowsDNN("a") || s.AllowsDNN("c") {
		t.Fatal("AllowsDNN wrong")
	}
	if !s.AllowsSST(3) || s.AllowsSST(2) {
		t.Fatal("AllowsSST wrong")
	}
	open := &Subscriber{}
	if !open.AllowsSST(7) {
		t.Fatal("empty SST list must allow any")
	}
	if open.AllowsDNN("a") {
		t.Fatal("empty DNN list must allow none")
	}
}

func TestGNBBearerLifecycle(t *testing.T) {
	k := sched.New(1)
	n := NewNetwork(k)
	delivered := 0
	n.GNB.AttachUE("ue1", func(any) bool { delivered++; return true })

	// Data for a UE without a bearer is dropped.
	if n.GNB.SendData(&radio.Packet{UE: "ue1", SessionID: 1}) {
		t.Fatal("data delivered without a bearer")
	}
	n.GNB.HandleUplink(radio.RRCConnect{UE: "ue1"})
	if !n.GNB.Connected("ue1") {
		t.Fatal("RRC connect ignored")
	}
	n.GNB.AddBearer("ue1", 1)
	n.GNB.AddBearer("ue1", 2)
	if n.GNB.BearerCount("ue1") != 2 {
		t.Fatalf("bearers = %d", n.GNB.BearerCount("ue1"))
	}
	if !n.GNB.SendData(&radio.Packet{UE: "ue1", SessionID: 1}) {
		t.Fatal("data refused with a bearer")
	}
	// Dropping one of two bearers keeps the RRC connection.
	n.GNB.RemoveBearer("ue1", 1)
	if !n.GNB.Connected("ue1") {
		t.Fatal("RRC released with a bearer remaining")
	}
	// Dropping the last bearer releases RRC.
	n.GNB.RemoveBearer("ue1", 2)
	if n.GNB.Connected("ue1") {
		t.Fatal("RRC kept after last bearer release")
	}
	// Unknown UEs are ignored gracefully.
	n.GNB.HandleUplink(radio.UplinkNAS{UE: "ghost", Bytes: []byte{1}})
	n.GNB.RemoveBearer("ghost", 1)
	n.GNB.DetachUE("ue1")
	if n.GNB.SendNAS(&radio.NAS{UE: "ue1", Bytes: []byte{1}}) {
		t.Fatal("NAS delivered to detached UE")
	}
}

func TestAMFServiceRequestPaths(t *testing.T) {
	k := sched.New(20)
	n := NewNetwork(k)
	u := newUE(t, k, n, "310170000000020")
	u.modem.PowerOn()
	k.RunFor(20 * time.Second)

	// A registered UE's service request is accepted (no new reject).
	rejectsBefore := n.AMF.Stats().Rejects
	sendPlainNAS(t, n, u.modem.IMSI(), &nas.ServiceRequest{
		Identity: nas.MobileIdentity{Type: nas.IdentityGUTI, Value: "g"},
	})
	k.RunFor(time.Second)
	if n.AMF.Stats().Rejects != rejectsBefore {
		t.Fatal("registered service request was rejected")
	}

	// After a context drop the service request is rejected (cause 9).
	n.AMF.DesyncIdentity(u.modem.IMSI())
	sendPlainNAS(t, n, u.modem.IMSI(), &nas.ServiceRequest{
		Identity: nas.MobileIdentity{Type: nas.IdentityGUTI, Value: "g"},
	})
	k.RunFor(time.Second)
	if n.AMF.Stats().Rejects != rejectsBefore+1 {
		t.Fatalf("service reject count = %d, want %d", n.AMF.Stats().Rejects, rejectsBefore+1)
	}
}

// sendPlainNAS injects an unprotected NAS message as if from the UE.
func sendPlainNAS(t *testing.T, n *Network, imsi string, msg nas.Message) {
	t.Helper()
	n.AMF.HandleUplinkNAS(imsi, nas.Marshal(msg))
}

func TestScale200Devices(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test")
	}
	k := sched.New(77)
	n := NewNetwork(k)
	var ues []*ue
	for i := 0; i < 200; i++ {
		ues = append(ues, newUE(t, k, n, imsiN(i)))
	}
	for i, u := range ues {
		u := u
		k.After(time.Duration(i)*50*time.Millisecond, u.modem.PowerOn)
	}
	k.RunFor(2 * time.Minute)
	up := 0
	for _, u := range ues {
		if _, okS := u.modem.FirstActiveSession(); okS {
			up++
		}
	}
	if up != 200 {
		t.Fatalf("only %d/200 devices came up", up)
	}
	if n.UDM.Count() != 200 {
		t.Fatalf("subscribers = %d", n.UDM.Count())
	}
}

func imsiN(i int) string {
	base := "310170100000000"
	b := []byte(base)
	for p := len(b) - 1; i > 0 && p >= 0; p-- {
		b[p] = byte('0' + (i % 10))
		i /= 10
	}
	return string(b)
}

// HasBlock and the per-packet blocked check read the network-wide and the
// per-UE lists in place; they must agree with the copying Blocks accessor.
func TestUPFHasBlockCoversGlobalAndPerUE(t *testing.T) {
	u := NewUPF(sched.New(1), nil, new(radio.FramePool))
	if u.HasBlock("ue1", nas.ProtoTCP) || u.blocked("ue1", nas.ProtoTCP, 443) {
		t.Fatal("block reported on an empty policy")
	}
	u.AddBlock("", PolicyBlock{Proto: nas.ProtoUDP, PortLow: 53, PortHigh: 53})
	u.AddBlock("ue1", PolicyBlock{Proto: nas.ProtoTCP})
	for _, c := range []struct {
		imsi  string
		proto uint8
		port  uint16
		has   bool
		block bool
	}{
		{"ue1", nas.ProtoTCP, 443, true, true},
		{"ue2", nas.ProtoTCP, 443, false, false},
		{"ue2", nas.ProtoUDP, 53, true, true},    // network-wide
		{"ue2", nas.ProtoUDP, 9000, true, false}, // on the protocol, outside the port range
	} {
		if got := u.HasBlock(c.imsi, c.proto); got != c.has {
			t.Errorf("HasBlock(%s, %d) = %v, want %v", c.imsi, c.proto, got, c.has)
		}
		if got := u.blocked(c.imsi, c.proto, c.port); got != c.block {
			t.Errorf("blocked(%s, %d, %d) = %v, want %v", c.imsi, c.proto, c.port, got, c.block)
		}
	}
	if n := len(u.Blocks("ue1")); n != 2 {
		t.Fatalf("Blocks(ue1) returned %d entries, want 2", n)
	}
	u.ClearBlocks("ue1")
	if u.HasBlock("ue1", nas.ProtoTCP) {
		t.Fatal("per-UE block survives ClearBlocks")
	}
}
