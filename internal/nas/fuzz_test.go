package nas

import (
	"bytes"
	"testing"

	"github.com/seed5g/seed/internal/cause"
)

// FuzzUnmarshal drives the NAS codec with arbitrary bytes. The decoder must
// never panic, and any input it accepts must canonicalize idempotently:
// re-marshaling the decoded message and decoding it again yields the same
// wire bytes. (Byte-identity with the original input is deliberately not
// required — unknown optional tags are skipped and zero-valued optionals
// are omitted on re-encode, so the first marshal canonicalizes.)
//
// It also pins the rule pooled NAS frames rest on: a decoded message shares
// no memory with its input (decoders copy what they keep), so overwriting
// the input after Unmarshal must not change what the message re-marshals
// to; and a reused Codec decodes and encodes exactly as the package-level
// functions do.
//
// And it pins the rule pooled messages rest on (see Pool): a message that
// was decoded through a pooled Codec and not released is never touched by
// later decodes, whatever they are; once it is released, the next decodes
// may reuse it, and what they return carries nothing over from it — every
// seed message decodes, through the same pool, to what an unpooled decode
// of it gives.
//
// Additional seed inputs recorded from live testbed NAS flows live in
// testdata/fuzz/FuzzUnmarshal, emitted by `seedfuzz -emit-corpus`.
func FuzzUnmarshal(f *testing.F) {
	var rnd, autn [16]byte
	for i := range rnd {
		rnd[i] = byte(i)
		autn[i] = byte(0xF0 - i)
	}
	seeds := []Message{
		&RegistrationRequest{
			RegistrationType: RegInitial,
			Identity:         MobileIdentity{Type: IdentitySUCI, Value: "310170000000001"},
			RequestedNSSAI:   []SNSSAI{{SST: 1, SD: [3]byte{0, 0, 1}}},
			LastTAI:          &TAI{PLMN: 310170, TAC: 7711},
			Capability:       []byte{0x01, 0x02},
		},
		&RegistrationAccept{
			GUTI:         MobileIdentity{Type: IdentityGUTI, Value: "guti-000001"},
			TAIList:      []TAI{{PLMN: 310170, TAC: 1}},
			AllowedNSSAI: []SNSSAI{{SST: 1}},
			T3512Seconds: 3600,
		},
		&RegistrationReject{Cause: cause.MMCongestion, T3502Seconds: 720},
		&ServiceReject{Cause: cause.MMCongestion, T3346Seconds: 300},
		&AuthenticationRequest{NgKSI: 1, RAND: rnd, AUTN: autn},
		&AuthenticationRequest{NgKSI: 0, RAND: DFlagRAND, AUTN: autn},
		&AuthenticationFailure{Cause: cause.MMSynchFailure, AUTS: []byte{1, 2, 3, 4}},
		&PDUSessionEstablishmentRequest{
			SMHeader:    SMHeader{PDUSessionID: 1, PTI: 1},
			SessionType: SessionIPv4,
			DNN:         "internet",
			SNSSAI:      &SNSSAI{SST: 1},
		},
		&PDUSessionEstablishmentAccept{
			SMHeader:    SMHeader{PDUSessionID: 1, PTI: 1},
			SessionType: SessionIPv4,
			Address:     Addr{10, 64, 0, 2},
			DNSServers:  []Addr{{8, 8, 8, 8}},
			QoS:         QoS{FiveQI: 9},
			DNN:         "internet",
		},
		&PDUSessionEstablishmentReject{
			SMHeader:       SMHeader{PDUSessionID: 2, PTI: 2},
			Cause:          cause.SMInsufficientResources,
			BackoffSeconds: 60,
		},
		&PDUSessionModificationCommand{
			SMHeader:   SMHeader{PDUSessionID: 1},
			QoS:        &QoS{FiveQI: 5},
			DNSServers: []Addr{{1, 1, 1, 1}},
		},
	}
	var seedWires [][]byte
	for _, m := range seeds {
		seedWires = append(seedWires, Marshal(m))
		f.Add(Marshal(m))
	}
	// Malformed shapes near the interesting edges.
	f.Add([]byte{EPD5GMM, 0x00, byte(MTRegistrationAccept), 0x02, 0x00})
	f.Add([]byte{EPD5GSM, 0x01, 0x01, byte(MTPDUSessionEstablishmentAccept), 0x01})
	f.Add([]byte{EPD5GMM})

	var codec Codec
	pool := new(Pool)
	pooled := Codec{Pool: pool}
	// decodeSeeds decodes every seed through the pool and checks each
	// against its own wire form (the seeds are canonical).
	decodeSeeds := func(t *testing.T, when string) []Message {
		held := make([]Message, len(seedWires))
		for i, w := range seedWires {
			m, err := pooled.Unmarshal(w)
			if err != nil {
				t.Fatalf("seed %d through the pool %s: %v", i, when, err)
			}
			if got := Marshal(m); !bytes.Equal(got, w) {
				t.Fatalf("seed %d decoded through the pool %s:\n got  % x\n want % x", i, when, got, w)
			}
			held[i] = m
		}
		return held
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := append([]byte(nil), data...) // the fuzzer's bytes are read-only
		msg, err := Unmarshal(in)
		cmsg, cerr := codec.Unmarshal(in)
		if (err == nil) != (cerr == nil) {
			t.Fatalf("Codec.Unmarshal err %v, Unmarshal err %v\n input % x", cerr, err, data)
		}
		if err != nil {
			return
		}
		c1 := Marshal(msg)
		for i := range in {
			in[i] ^= 0xFF
		}
		if again := Marshal(msg); !bytes.Equal(again, c1) {
			t.Fatalf("decoded message aliases its input:\n input % x\n before % x\n after  % x", data, c1, again)
		}
		if cc := codec.AppendMarshal(nil, cmsg); !bytes.Equal(cc, c1) {
			t.Fatalf("Codec round trip differs:\n input % x\n codec % x\n plain % x", data, cc, c1)
		}

		for i := range in {
			in[i] ^= 0xFF // back to the input
		}
		pmsg, perr := pooled.Unmarshal(in)
		if perr != nil {
			t.Fatalf("pooled Codec rejects what Unmarshal accepts: %v\n input % x", perr, data)
		}
		if pc := Marshal(pmsg); !bytes.Equal(pc, c1) {
			t.Fatalf("pooled decode differs:\n input % x\n pool  % x\n plain % x", data, pc, c1)
		}
		held := decodeSeeds(t, "beside a live message")
		if pc := Marshal(pmsg); !bytes.Equal(pc, c1) {
			t.Fatalf("a message that was not released changed under later decodes:\n input % x\n before % x\n after  % x", data, c1, pc)
		}
		pool.Put(pmsg)
		for _, m := range held {
			pool.Put(m)
		}
		for _, m := range decodeSeeds(t, "after the release") {
			pool.Put(m)
		}
		msg2, err := Unmarshal(c1)
		if err != nil {
			t.Fatalf("canonical form rejected: %v\n input % x\n canon % x", err, data, c1)
		}
		c2 := Marshal(msg2)
		if !bytes.Equal(c1, c2) {
			t.Fatalf("canonicalization not idempotent:\n input % x\n c1    % x\n c2    % x", data, c1, c2)
		}
	})
}
