package nas_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"github.com/seed5g/seed/internal/crypto5g"
	"github.com/seed5g/seed/internal/modem"
	"github.com/seed5g/seed/internal/nas"
	"github.com/seed5g/seed/internal/netemu"
	"github.com/seed5g/seed/internal/radio"
	"github.com/seed5g/seed/internal/sched"
	"github.com/seed5g/seed/internal/sim"
)

// delivered is a challenge as it was handed to the observer, copied during
// the call.
type delivered struct{ rnd, autn [16]byte }

// challengeLog is the kernel's observer (a modem.NASObserver): it copies
// every downlink challenge at the moment of delivery and — what an observer
// must not do — keeps the message it was lent.
type challengeLog struct {
	seen    []delivered
	kept    []*nas.AuthenticationRequest
	onEvery func()
}

func (l *challengeLog) NAS(_ string, sent bool, msg nas.Message) {
	if req, isReq := msg.(*nas.AuthenticationRequest); isReq && !sent {
		l.seen = append(l.seen, delivered{req.RAND, req.AUTN})
		l.kept = append(l.kept, req)
		l.onEvery()
	}
}

// TestDecodedMessageOwnership exercises the one place a decoded message
// outlives the handler it was delivered to: the modem holds an
// Authentication Request for the SIM I/O latency before it runs the
// challenge, and releases it to the pool only then. On a duplicating,
// reordering link two challenges (and their copies) are in flight inside
// the modem at once, each in a message struct of its own; every one of
// them must run with the RAND and AUTN it arrived with. The oracle is a
// second card fed the same challenges in the order they were delivered.
//
// The pool poisons what is released into it, so a message read after its
// release — the request by runAuth, or any other downlink by a handler —
// answers with garbage and the comparison fails; and a message the observer
// kept past the call it was lent for reads poison once its run is over.
func TestDecodedMessageOwnership(t *testing.T) {
	var key, op [16]byte
	copy(key[:], "ownership-key-00")
	copy(op[:], "ownership-op-000")
	profile := sim.Profile{IMSI: "001010000000077", K: key, OP: op, PLMNs: []uint32{modem.ServingPLMN}, DNN: "internet"}
	mil, err := crypto5g.NewMilenage(key[:], op[:])
	if err != nil {
		t.Fatal(err)
	}
	challenge := func(sqn uint64) *nas.AuthenticationRequest {
		req := &nas.AuthenticationRequest{NgKSI: 1}
		for i := range req.RAND {
			req.RAND[i] = byte(sqn*31 + uint64(i))
		}
		amf := [2]byte{0x80, 0x00}
		macA, _ := mil.F1(req.RAND, sqn, amf)
		_, _, _, ak := mil.F2345(req.RAND)
		req.AUTN = crypto5g.AUTN(sqn, ak, amf, macA)
		return req
	}

	overlapped, reordered := 0, 0
	for seed := int64(1); seed <= 24; seed++ {
		k := sched.New(seed)
		newCard := func() *sim.Card {
			c, err := sim.NewCard(sim.DefaultEEPROM, sim.DefaultRAM, [16]byte{1}, profile)
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
		frames, pool := new(radio.NASPool), new(nas.Pool)
		pool.PoisonReleased()

		// What the modem answered, as "RES <hex>" / "FAIL <cause> <hex>".
		var answers []string
		tx := func(frame any) bool {
			f, isNAS := frame.(*radio.NAS)
			if !isNAS {
				return true
			}
			msg, err := nas.Unmarshal(f.Bytes)
			frames.Put(f)
			if err != nil {
				t.Fatalf("seed %d: bad uplink: %v", seed, err)
			}
			switch m := msg.(type) {
			case *nas.AuthenticationResponse:
				answers = append(answers, fmt.Sprintf("RES %x", m.RES))
			case *nas.AuthenticationFailure:
				answers = append(answers, fmt.Sprintf("FAIL %d %x", m.Cause, m.AUTS))
			}
			return true
		}
		m := modem.New(k, newCard(), tx, new(radio.FramePool), frames, pool)

		// What was delivered, in order, copied at the moment of delivery.
		log := &challengeLog{}
		maxInFlight := 0
		log.onEvery = func() { maxInFlight = max(maxInFlight, len(log.seen)-len(answers)) }
		k.Observe(log)

		m.PowerOn()
		k.RunFor(12 * time.Second) // booted, searching done, registering
		if m.State() != modem.StateRegistering {
			t.Fatalf("seed %d: modem is %v, want registering", seed, m.State())
		}

		link := netemu.NewLink(k, "down", 8*time.Millisecond, m.HandleDownlink)
		link.Dup, link.Reorder, link.ReorderSpan = 0.5, 0.5, 12*time.Millisecond
		first, second := challenge(1), challenge(2)
		for _, req := range []*nas.AuthenticationRequest{first, second} {
			f := frames.Get(profile.IMSI)
			f.Bytes = nas.AppendMarshal(f.Bytes, req)
			if !link.Send(f) {
				t.Fatalf("seed %d: link refused a frame", seed)
			}
		}
		k.RunFor(time.Second)

		oracle := newCard()
		var want []string
		seen := log.seen
		for _, d := range seen {
			switch res := oracle.Authenticate(d.rnd, d.autn); res.Kind {
			case sim.AuthOK:
				want = append(want, fmt.Sprintf("RES %x", res.RES))
			case sim.AuthSyncFailure:
				want = append(want, fmt.Sprintf("FAIL 21 %x", res.AUTS))
			case sim.AuthMACFailure:
				want = append(want, "FAIL 20 ")
			}
		}
		if len(seen) < 2 || fmt.Sprint(answers) != fmt.Sprint(want) {
			t.Fatalf("seed %d: %d challenges delivered\n answered %v\n a card given the same challenges in the same order answers\n          %v", seed, len(seen), answers, want)
		}
		if maxInFlight >= 2 {
			overlapped++
		}
		if seen[0].rnd != first.RAND {
			reordered++
		}
		// Every request was released exactly when its run was over.
		if got := pool.Released(first); got != 0 {
			t.Fatalf("seed %d: a poisoning pool kept %d messages", seed, got)
		}
		for i, req := range log.kept {
			if req.RAND == seen[i].rnd || req.RAND[0] != 0xDB {
				t.Fatalf("seed %d: challenge %d, kept by the observer past its call, still reads RAND %x", seed, i, req.RAND)
			}
		}
	}
	if overlapped == 0 || reordered == 0 {
		t.Fatalf("over 24 seeds the link overlapped the challenges %d times and reordered them %d times: the test did not reach its case", overlapped, reordered)
	}
}

// TestPoolReusesReleasedMessages is the pool's basic contract: a released
// message is what the next decode of its type fills, zeroed first, and a
// message that was not released is never handed out again.
func TestPoolReusesReleasedMessages(t *testing.T) {
	pool := new(nas.Pool)
	codec := nas.Codec{Pool: pool}
	full := nas.Marshal(&nas.PDUSessionEstablishmentRequest{
		SMHeader: nas.SMHeader{PDUSessionID: 3, PTI: 9}, SessionType: nas.SessionIPv4,
		DNN: "internet", SNSSAI: &nas.SNSSAI{SST: 1, SD: [3]byte{1, 2, 3}},
	})
	bare := nas.Marshal(&nas.PDUSessionEstablishmentRequest{
		SMHeader: nas.SMHeader{PDUSessionID: 4, PTI: 10}, SessionType: nas.SessionIPv4, DNN: "ims",
	})
	a, err := codec.Unmarshal(full)
	if err != nil {
		t.Fatal(err)
	}
	b, err := codec.Unmarshal(bare)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("a live message was handed out twice")
	}
	pool.Put(a)
	c, err := codec.Unmarshal(bare)
	if err != nil {
		t.Fatal(err)
	}
	if c != a {
		t.Fatal("the released message was not reused")
	}
	if got := nas.Marshal(c); !bytes.Equal(got, bare) {
		t.Fatalf("a reused message kept parts of its last use:\n got  % x\n want % x", got, bare)
	}
	if n := testing.AllocsPerRun(100, func() {
		msg, err := codec.Unmarshal(full)
		if err != nil {
			t.Fatal(err)
		}
		pool.Put(msg)
	}); n != 0 {
		t.Fatalf("decode and release of a session request allocates %.0f objects", n)
	}
}
