// Package fleet is the carrier-side SEED aggregation service as a real
// networked system: a TCP server (cmd/seedfleetd) that ingests sealed
// learning-record uploads and failure reports from a fleet of devices and
// folds them into the collaborative online-learning model (Algorithm 1,
// §5.3/§6), and a client (used by cmd/seedload) that drives simulated
// devices through upload → aggregate → model-push round trips.
//
// The wire payloads are the repo's existing formats: crypto5g sealed
// envelopes around core record blobs and report.FailureReport records.
// Delivery is at-least-once (clients retry on timeout and backpressure);
// the envelope's per-direction counters double as a dedup mechanism, so
// every record is folded exactly once and the aggregated model is
// byte-identical to an in-process sequential baseline.
//
// A server shard holds its fold as a core.Records table, and a query is
// answered with the argmax over every shard's table (core.Tally, which
// breaks ties as Records.Best does): the logistic gate, rate and random
// source of core.Learner belong to the in-process plugin and were never
// read here. Uploads and reports change a shard through one function,
// (*shard).apply, both when they arrive and when a journaled server
// replays them after a crash, so recovery rebuilds
// the acknowledged state byte for byte (DESIGN.md, "Crash-tolerant sharded
// fleet tier").
package fleet

import (
	"encoding/hex"
	"fmt"

	"github.com/seed5g/seed/internal/core"
	"github.com/seed5g/seed/internal/crypto5g"
)

// DefaultMasterKey is the development fleet master key both seedfleetd and
// seedload default to. Real deployments provision per-subscriber keys out
// of band; here K is derived per IMSI so the two processes agree without a
// shared database.
var DefaultMasterKey = [16]byte{
	0x5e, 0xed, 0xf1, 0xee, 0x70, 0x00, 0x00, 0x01,
	0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77,
}

// SubscriberKey derives the pre-shared in-SIM key K for a subscriber from
// the fleet master key: K = AES-CMAC(master, IMSI). The carrier service
// derives the same K the SIM was provisioned with, exactly the "pre-shared
// in-SIM key" trust model of §6 — no certificate exchange on the wire.
func SubscriberKey(master [16]byte, imsi string) [16]byte {
	k, err := crypto5g.CMAC(master[:], []byte(imsi))
	if err != nil {
		panic(err) // 16-byte key cannot fail
	}
	return k
}

// ParseMasterKey decodes a 32-hex-digit master key flag value.
func ParseMasterKey(s string) ([16]byte, error) {
	var k [16]byte
	raw, err := hex.DecodeString(s)
	if err != nil {
		return k, fmt.Errorf("fleet: master key: %w", err)
	}
	if len(raw) != 16 {
		return k, fmt.Errorf("fleet: master key must be 16 bytes, got %d", len(raw))
	}
	copy(k[:], raw)
	return k, nil
}

// NewSubscriberEnvelope builds the sealed collaboration channel for one
// subscriber, derived the same way on the device and the carrier service.
func NewSubscriberEnvelope(master [16]byte, imsi string) *crypto5g.Envelope {
	return core.NewChannelEnvelope(SubscriberKey(master, imsi))
}

// Ratio returns num/den, or 0 when den is 0: how the coalescing counters
// (Client.Frames/Writes, ServerStats Responses/Flushes and
// JournalRecords/JournalSyncs) are reported.
func Ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// MarshalModel canonically encodes an aggregate model: 7-byte rows with
// uint32 counts (core.AppendRecords). The same bytes answer a TModelPull
// and form a shard snapshot's model section.
func MarshalModel(m core.Records) []byte { return core.AppendRecords(nil, m, 4) }
