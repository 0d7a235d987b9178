package metrics

import "time"

// Recovery cost model — the single source of truth shared by the
// experiment breakdowns (DatasetGrid.Causes, seedbench -json) and the
// policy optimizer (internal/policy): a cell's quality is a
// seconds-equivalent composite of disruption time, the cost of the reset
// actions themselves, and user-visible impact.
const (
	// UnrecoveredPenaltyS charges a cell that never recovers inside the
	// replay window as a fixed outage (the window is 10 virtual minutes).
	UnrecoveredPenaltyS = 600.0
	// ImpactWeightS is the seconds-equivalent charge per user-visible
	// event (a notification or a modem reboot).
	ImpactWeightS = 15.0
)

// ActionCostS prices one reset action by its String() name: the service
// interruption the reset itself inflicts (the Figure 5 tier ladder — a
// modem reset drops every bearer for seconds, a data-plane reset is
// near-free), with the root (B) tier cheaper than its user-space (A)
// equivalent because it skips the proactive-command round trip. Unknown
// names cost 0.
func ActionCostS(name string) float64 {
	switch name {
	case "B3/dplane-reset":
		return 0.5
	case "A3/dplane-config-update":
		return 1.0
	case "B2/cplane-reattach":
		return 2.5
	case "A2/cplane-config-update":
		return 3.5
	case "B1/modem-reset":
		return 8.0
	case "A1/profile-reload":
		return 10.0
	default:
		return 0
	}
}

// CostInput is one cell's measured outcome in cost-model vocabulary.
type CostInput struct {
	Recovered    bool
	Disruption   time.Duration
	Actions      map[string]int
	Reboots      int
	UserNotified bool
}

// Cost is the priced outcome; CompositeS is the optimization objective
// (lower is better).
type Cost struct {
	DisruptS   float64
	ActionS    float64
	ImpactS    float64
	CompositeS float64
}

// PriceCell prices one outcome under the model.
func PriceCell(in CostInput) Cost {
	var c Cost
	if in.Recovered {
		c.DisruptS = in.Disruption.Seconds()
	} else {
		c.DisruptS = UnrecoveredPenaltyS
	}
	for name, n := range in.Actions {
		c.ActionS += ActionCostS(name) * float64(n)
	}
	impacts := in.Reboots
	if in.UserNotified {
		impacts++
	}
	c.ImpactS = ImpactWeightS * float64(impacts)
	c.CompositeS = c.DisruptS + c.ActionS + c.ImpactS
	return c
}
