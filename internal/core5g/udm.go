// Package core5g emulates the network side of the SEED testbed: a gNB
// (radio bearer lifecycle, including the release-last-bearer behaviour
// SEED's fast data-plane reset works around), an AMF (registration,
// 5G-AKA, mobility, reject generation), an SMF (PDU session lifecycle and
// data-plane configuration), a UPF (packet filtering, policy blocks, DNS
// service) and a UDM (subscriber database). Reject messages carry real
// standardized cause codes, and a failure injector can force any cause,
// silence the network (timeouts), or desynchronize UE state — the
// ingredients of every experiment in the paper's evaluation.
package core5g

import (
	"fmt"

	"github.com/seed5g/seed/internal/crypto5g"
	"github.com/seed5g/seed/internal/nas"
)

// SessionConfig is the per-DNN data-plane configuration the SMF hands out.
type SessionConfig struct {
	DNS []nas.Addr
	TFT nas.TFT
	QoS nas.QoS
}

// Subscriber is a UDM subscription record.
type Subscriber struct {
	IMSI string
	K    [16]byte
	OP   [16]byte

	// Authorized is false for unauthorized subscribers (identity
	// authentication failures SEED cannot fix, §7.1.1).
	Authorized bool
	// PlanActive is false for expired data plans (user action required).
	PlanActive bool
	// SEEDEnabled marks subscribers whose SIM carries the SEED applet;
	// the infrastructure plugin only sends diagnosis deliveries to them
	// (a DFlag challenge would fail AKA on a stock SIM).
	SEEDEnabled bool

	// DefaultDNN is the subscription's default data network.
	DefaultDNN string
	// AllowedDNNs lists the DNNs the subscriber may request.
	AllowedDNNs []string
	// AllowedSST lists the permitted slice service types (empty = any).
	AllowedSST []uint8

	// Sessions maps each allowed DNN to its data-plane configuration.
	Sessions map[string]SessionConfig

	mil *crypto5g.Milenage
	sqn uint64
}

// UDM is the subscriber database and authentication-vector source.
type UDM struct {
	subs map[string]*Subscriber
	// lastSub is the latest hit in subs: every registration, session
	// request and diagnosis asks for the subscriber it is about, and
	// subscriptions are never removed.
	lastSub *Subscriber
}

// NewUDM creates an empty subscriber database.
func NewUDM() *UDM { return &UDM{subs: make(map[string]*Subscriber)} }

// AddSubscriber registers a subscription. It is an error to register the
// same IMSI twice or a subscriber whose default DNN has no session config.
func (u *UDM) AddSubscriber(s *Subscriber) error {
	if _, dup := u.subs[s.IMSI]; dup {
		return fmt.Errorf("core5g: duplicate subscriber %s", s.IMSI)
	}
	mil, err := crypto5g.NewMilenage(s.K[:], s.OP[:])
	if err != nil {
		return err
	}
	if s.Sessions == nil {
		s.Sessions = map[string]SessionConfig{}
	}
	if _, okd := s.Sessions[s.DefaultDNN]; !okd && s.DefaultDNN != "" {
		return fmt.Errorf("core5g: subscriber %s default DNN %q has no session config", s.IMSI, s.DefaultDNN)
	}
	s.mil = mil
	u.subs[s.IMSI] = s
	return nil
}

// Subscriber looks up a subscription by IMSI.
func (u *UDM) Subscriber(imsi string) (*Subscriber, bool) {
	if u.lastSub != nil && u.lastSub.IMSI == imsi {
		return u.lastSub, true
	}
	s, okS := u.subs[imsi]
	if okS {
		u.lastSub = s
	}
	return s, okS
}

// Count returns the number of provisioned subscribers.
func (u *UDM) Count() int { return len(u.subs) }

// AuthVector is a 5G-AKA authentication vector.
type AuthVector struct {
	RAND [16]byte
	AUTN [16]byte
	XRES [8]byte
	// IK keys the NAS security context established after this vector's
	// Security Mode procedure.
	IK [16]byte
}

// GenerateAuthVector produces the next authentication vector for a
// subscriber, advancing the network-side SQN.
func (u *UDM) GenerateAuthVector(imsi string, rnd [16]byte) (AuthVector, error) {
	s, okS := u.Subscriber(imsi)
	if !okS {
		return AuthVector{}, fmt.Errorf("core5g: unknown subscriber %s", imsi)
	}
	s.sqn++
	amf := [2]byte{0x80, 0x00}
	ch := s.mil.Challenge(rnd)
	macA, _ := ch.F1(s.sqn, amf)
	xres, ak := ch.F25()
	return AuthVector{
		RAND: rnd,
		AUTN: crypto5g.AUTN(s.sqn, ak, amf, macA),
		XRES: xres,
		IK:   ch.F4(),
	}, nil
}

// Resynchronize recovers SQN_MS from an AUTS token and fast-forwards the
// network SQN past it (TS 33.102 §6.3.5).
func (u *UDM) Resynchronize(imsi string, rnd [16]byte, auts []byte) error {
	s, okS := u.subs[imsi]
	if !okS {
		return fmt.Errorf("core5g: unknown subscriber %s", imsi)
	}
	if len(auts) < 6 {
		return fmt.Errorf("core5g: AUTS too short (%d bytes)", len(auts))
	}
	akStar := s.mil.F5Star(rnd)
	var sqnBytes [6]byte
	copy(sqnBytes[:], auts[0:6])
	for i := 0; i < 6; i++ {
		sqnBytes[i] ^= akStar[i]
	}
	s.sqn = crypto5g.SQNFromBytes(sqnBytes[:])
	return nil
}

// AllowsDNN reports whether the subscription permits the DNN.
func (s *Subscriber) AllowsDNN(dnn string) bool {
	for _, d := range s.AllowedDNNs {
		if d == dnn {
			return true
		}
	}
	return false
}

// AllowsSST reports whether the subscription permits the slice type.
func (s *Subscriber) AllowsSST(sst uint8) bool {
	if len(s.AllowedSST) == 0 {
		return true
	}
	for _, v := range s.AllowedSST {
		if v == sst {
			return true
		}
	}
	return false
}
