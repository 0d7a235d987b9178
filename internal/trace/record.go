// Package trace synthesizes and analyzes the failure dataset the paper
// mines in §3.1. The real corpus — 6.7 TB of MobileInsight/MI-LAB signaling
// from 30+ device models across 8 US/Chinese carriers, 2015–2021 — is not
// redistributable, so the generator encodes its *published aggregate
// statistics* as a target distribution: 24 k control/data-plane management
// procedures, 2832 failure cases (>10 % failure ratio), the Table 1 cause
// mix, and per-cause failure semantics (transient vs. state-desync vs.
// outdated-configuration vs. user-action) that drive testbed replay.
package trace

import (
	"fmt"
	"time"

	"github.com/seed5g/seed/internal/cause"
	"github.com/seed5g/seed/internal/workload"
)

// Scenario classifies how a failure case behaves when replayed: what is
// actually wrong, and therefore what can fix it.
type Scenario uint8

const (
	// ScenTransient failures self-heal network-side after Heal.
	ScenTransient Scenario = iota + 1
	// ScenDesync failures come from infrastructure/device state mismatch
	// (lost GUTI mapping, released bearer context): fixed by any reset
	// that refreshes identities.
	ScenDesync
	// ScenStaleConfigDevice failures come from an outdated configuration
	// cached in the modem while the SIM copy is already correct: a modem
	// reboot (or any SIM reload) fixes them.
	ScenStaleConfigDevice
	// ScenStaleConfigEverywhere failures have the outdated configuration
	// on the modem AND the SIM: only the network's up-to-date config (or
	// an eventual operator OTA at Heal) fixes them.
	ScenStaleConfigEverywhere
	// ScenUserAction failures (expired plan, unauthorized subscriber)
	// cannot be fixed by any reset.
	ScenUserAction
	// ScenSilent failures are procedures the network never answers
	// (timeout class); they heal after Heal.
	ScenSilent
)

func (s Scenario) String() string {
	switch s {
	case ScenTransient:
		return "transient"
	case ScenDesync:
		return "state-desync"
	case ScenStaleConfigDevice:
		return "stale-config-device"
	case ScenStaleConfigEverywhere:
		return "stale-config-everywhere"
	case ScenUserAction:
		return "user-action"
	case ScenSilent:
		return "silent-timeout"
	default:
		return fmt.Sprintf("Scenario(%d)", uint8(s))
	}
}

// ScenarioOf maps a workload spec's scenario string (workload.Scen*) to its
// class. The mobility scenarios are cause-9 races that a replay walks as
// such, not a dataset class; they and any other string map to
// ScenTransient.
func ScenarioOf(s string) Scenario {
	switch s {
	case workload.ScenDesync:
		return ScenDesync
	case workload.ScenStaleDevice:
		return ScenStaleConfigDevice
	case workload.ScenStaleEverywhere:
		return ScenStaleConfigEverywhere
	case workload.ScenUserAction:
		return ScenUserAction
	case workload.ScenSilent:
		return ScenSilent
	default:
		return ScenTransient
	}
}

// Record is one failure case extracted from (synthesized) traces.
type Record struct {
	ID       int
	Carrier  string
	Device   string
	Cause    cause.Cause
	Scenario Scenario
	// Heal is when the underlying condition clears on its own (transient,
	// silent, and the OTA horizon of stale-everywhere cases). Zero means
	// the condition never self-heals.
	Heal time.Duration
}

// DeliveryKind classifies data-delivery failures (§3.1's TCP/UDP/DNS).
type DeliveryKind uint8

const (
	DeliveryTCPBlock DeliveryKind = iota + 1
	DeliveryUDPBlock
	DeliveryDNSOutage
	DeliveryStalledGateway
)

func (k DeliveryKind) String() string {
	switch k {
	case DeliveryTCPBlock:
		return "tcp-block"
	case DeliveryUDPBlock:
		return "udp-block"
	case DeliveryDNSOutage:
		return "dns-outage"
	case DeliveryStalledGateway:
		return "stalled-gateway"
	default:
		return fmt.Sprintf("DeliveryKind(%d)", uint8(k))
	}
}

// DeliveryRecord is one data-delivery failure case.
type DeliveryRecord struct {
	ID   int          `json:"id"`
	Kind DeliveryKind `json:"kind"`
}

// Dataset is the synthesized corpus.
type Dataset struct {
	// Procedures is the total number of control/data-plane management
	// procedures observed (failures included).
	Procedures int
	// Failures are the management failure cases.
	Failures []Record
	// Delivery are the data-delivery failure cases.
	Delivery []DeliveryRecord
}

// FailureRatio returns failures per management procedure.
func (d *Dataset) FailureRatio() float64 {
	if d.Procedures == 0 {
		return 0
	}
	return float64(len(d.Failures)) / float64(d.Procedures)
}
