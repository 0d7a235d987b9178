package metrics

import "time"

// The battery model is the analytic substitute for the §7.2.1 device power
// measurement. Per-operation energy costs are expressed as percentage of
// total battery per operation; the baseline drain is calibrated so the
// no-SEED arm reproduces the paper's 5.4 %/30 min floor, making *relative*
// overheads the meaningful output (the paper reports +1.2 % for SEED and
// +8.5 % for MobileInsight over 30 minutes).
const (
	// baselinePerMin is the default drain (screen, radio idle, app
	// traffic) in percent per minute: 5.4 % per 30 min.
	baselinePerMin = 5.4 / 30
	// simOpCost is the percent cost of one SIM diagnosis operation
	// (APDU + in-SIM processing on the card's low-power core): ≈1.2 % per
	// 1800 stress ops.
	simOpCost = 0.00067
	// diagPortMsgCost is the percent cost of decoding one diag-port
	// message on the application CPU (the MobileInsight approach): ≈8.5 %
	// per 30 min at ~100 msg/s.
	diagPortMsgCost = 0.0000472
)

// Drain returns the battery percentage consumed over elapsed time with
// the given operation counts.
func Drain(elapsed time.Duration, simOps, diagPortMsgs int) float64 {
	return baselinePerMin*elapsed.Minutes() +
		simOpCost*float64(simOps) +
		diagPortMsgCost*float64(diagPortMsgs)
}

// The CPU model is the analytic substitute for the §7.2.1 core-side CPU
// measurement (Figure 11a): utilization grows with signaling load, and
// SEED adds a small per-failure diagnosis cost (decision-tree lookup plus
// the extra Auth-Request/PDU-reject signaling). It is calibrated so that
// with 200 emulated UEs the baseline floor sits near 30 % as in Figure 11a,
// and SEED adds ≈4.7 % at 100 failures/s.
const (
	// idlePct is the core's utilization with no load.
	idlePct = 8
	// perAttachPct is the cost of one attach/detach procedure per second.
	perAttachPct = 0.11
	// perFailurePct is the stock core's cost of processing one failure
	// event per second (reject composition, context cleanup).
	perFailurePct = 0.065
	// seedPerFailurePct is SEED's additional per-failure cost (decision
	// tree + collaboration messages).
	seedPerFailurePct = 0.047
)

// Utilization returns average CPU percent for the given steady rates.
func Utilization(attachesPerSec, failuresPerSec float64, seedEnabled bool) float64 {
	u := idlePct + perAttachPct*attachesPerSec + perFailurePct*failuresPerSec
	if seedEnabled {
		u += seedPerFailurePct * failuresPerSec
	}
	if u > 100 {
		u = 100
	}
	return u
}
