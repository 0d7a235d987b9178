// Package adversary is SEED's protocol-fuzzing subsystem: a deterministic
// record-mutate-inject engine over the emulated testbed. A case boots a
// full device+core testbed, taps the legitimate message flows (NAS PDUs at
// the modem↔core boundary, APDUs at the modem↔SIM interface, sealed fleet
// payloads at the carrier-upload boundary), re-injects seed-derived
// structured mutations of the recorded traffic — bit flips, length-byte
// lies, truncation, duplication, stale replay, out-of-state delivery —
// and then asserts a reusable invariant set: no panic anywhere in the
// stack, the modem FSM lands in a legal TS 24.501 state, every timer
// drains, SEED never executes a recovery tier above its privilege, and
// tampered or replayed crypto5g envelopes are always rejected.
//
// Everything derives from one root seed via sched.DeriveSeedN, so a
// campaign of any size is bit-identical at any worker count and any
// failing case replays from its compact JSON form (see corpus.go).
package adversary

import (
	"fmt"

	"github.com/seed5g/seed/internal/sched"
)

// Channel identifies the tapped flow a mutation draws from and re-enters.
type Channel uint8

const (
	// ChanNASDown mutates downlink NAS delivered to the modem.
	ChanNASDown Channel = iota
	// ChanNASUp mutates uplink NAS delivered to the AMF.
	ChanNASUp
	// ChanAPDU mutates command APDUs delivered to the SIM card.
	ChanAPDU
	// ChanFleet mutates fleet wire frames carrying sealed uploads; these
	// run through the offline decode pipeline during the invariant phase.
	ChanFleet

	numChannels = 4
)

func (c Channel) String() string {
	switch c {
	case ChanNASDown:
		return "nas-down"
	case ChanNASUp:
		return "nas-up"
	case ChanAPDU:
		return "apdu"
	case ChanFleet:
		return "fleet"
	default:
		return fmt.Sprintf("Channel(%d)", uint8(c))
	}
}

// Op is the structured mutation applied to a recorded frame.
type Op uint8

const (
	// OpBitFlip flips one bit selected by Param.
	OpBitFlip Op = iota
	// OpLenLie overwrites the byte selected by Param with a lying value
	// (stressing every length-prefixed field a frame carries).
	OpLenLie
	// OpTruncate keeps only a Param-selected prefix of the frame.
	OpTruncate
	// OpDuplicate delivers the frame twice back-to-back.
	OpDuplicate
	// OpReplayStale re-delivers a frame recorded during warmup long after
	// the protocol state that produced it has moved on.
	OpReplayStale
	// OpOutOfState scrambles protocol state first (deregister, power-off,
	// dropped or desynced UE context per Param) and then delivers the
	// frame into the wrong state.
	OpOutOfState

	numOps = 6
)

func (o Op) String() string {
	switch o {
	case OpBitFlip:
		return "bit-flip"
	case OpLenLie:
		return "len-lie"
	case OpTruncate:
		return "truncate"
	case OpDuplicate:
		return "duplicate"
	case OpReplayStale:
		return "replay-stale"
	case OpOutOfState:
		return "out-of-state"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Mutation is one record-mutate-inject step. Pick selects the source frame
// from the channel's recorded pool (mod pool size at execution time), Param
// parameterizes the op, and AtMS offsets the injection into the mutation
// phase. All fields are plain integers so a case serializes compactly and
// replays exactly.
type Mutation struct {
	Channel Channel `json:"channel"`
	Op      Op      `json:"op"`
	Pick    uint32  `json:"pick"`
	Param   uint32  `json:"param"`
	AtMS    uint32  `json:"at_ms"`
}

func (m Mutation) String() string {
	return fmt.Sprintf("%s/%s pick=%d param=%d at=%dms", m.Channel, m.Op, m.Pick, m.Param, m.AtMS)
}

// Device option bits for Case.Opts.
const (
	// OptProactiveAT enables the §9 RUN AT COMMAND extension.
	OptProactiveAT uint8 = 1 << iota
	// OptRecommendedTimers applies the tuned Android recovery intervals.
	OptRecommendedTimers
)

// Stimulus values: the legitimate failure driven into the testbed before
// mutations land, so out-of-state and replay deliveries interleave with
// live diagnosis/recovery traffic rather than a quiet registered device.
const (
	StimNone          uint8 = 0 // healthy device
	StimControlReject uint8 = 1 // one PLMN-not-allowed on mobility
	StimDataReject    uint8 = 2 // one insufficient-resources on re-establishment
	StimDesync        uint8 = 3 // identity desync + mobility
	StimPlanExpired   uint8 = 4 // subscription plan lapses
	StimUnknownCause  uint8 = 5 // customized cause: drives the Algorithm-1 trial path
	numStimuli              = 6
)

// StimulusName names a stimulus for reports.
func StimulusName(s uint8) string {
	switch s {
	case StimNone:
		return "none"
	case StimControlReject:
		return "cp-reject"
	case StimDataReject:
		return "dp-reject"
	case StimDesync:
		return "identity-desync"
	case StimPlanExpired:
		return "plan-expired"
	case StimUnknownCause:
		return "unknown-cause"
	default:
		return fmt.Sprintf("stimulus(%d)", s)
	}
}

// Case is one self-contained adversarial scenario: a testbed seed, the
// device build (mode + options), a stimulus, and an ordered mutation plan.
// Executing the same Case always produces the same Result.
type Case struct {
	// Seed drives the testbed kernel (radio jitter, timers, app traffic).
	Seed int64 `json:"seed"`
	// Mode is the device stack: 1 Legacy, 2 SEED-U, 3 SEED-R.
	Mode uint8 `json:"mode"`
	// Opts is an OptProactiveAT/OptRecommendedTimers bit set.
	Opts uint8 `json:"opts"`
	// Stimulus is the legitimate failure injected before mutations.
	Stimulus uint8 `json:"stimulus"`
	// Mutations is the ordered injection plan.
	Mutations []Mutation `json:"mutations"`
}

// ModeName names the device stack for reports.
func (c Case) ModeName() string {
	switch c.Mode {
	case 1:
		return "legacy"
	case 2:
		return "SEED-U"
	case 3:
		return "SEED-R"
	default:
		return fmt.Sprintf("mode(%d)", c.Mode)
	}
}

// Generate derives case idx of a campaign rooted at root. The testbed seed
// and the plan randomness come from disjoint DeriveSeedN paths, so the
// scenario a case boots never depends on how many mutations the plan
// draws, and neighbouring cases share nothing.
func Generate(root int64, idx, maxMutations int) Case {
	if maxMutations < 1 {
		maxMutations = 1
	}
	rng := sched.NewRand(sched.DeriveSeedN(root, uint64(idx), 1))
	c := Case{
		Seed:     sched.DeriveSeedN(root, uint64(idx), 0),
		Mode:     uint8(1 + rng.Intn(3)),
		Opts:     uint8(rng.Intn(4)),
		Stimulus: uint8(rng.Intn(numStimuli)),
	}
	n := 1 + rng.Intn(maxMutations)
	c.Mutations = make([]Mutation, 0, n)
	for i := 0; i < n; i++ {
		c.Mutations = append(c.Mutations, Mutation{
			Channel: Channel(rng.Intn(numChannels)),
			Op:      Op(rng.Intn(numOps)),
			Pick:    rng.Uint32(),
			Param:   rng.Uint32(),
			AtMS:    uint32(rng.Intn(int(mutationWindow.Milliseconds()))),
		})
	}
	return c
}
