package trace

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/seed5g/seed/internal/cause"
	"github.com/seed5g/seed/internal/sched"
)

// GenConfig parameterizes dataset synthesis. The defaults reproduce the
// paper's §3.1 corpus statistics.
type GenConfig struct {
	Seed       int64
	Procedures int
	Failures   int
	Delivery   int
}

// DefaultGenConfig returns the §3.1 corpus shape.
func DefaultGenConfig() GenConfig {
	return GenConfig{Seed: 1, Procedures: 24000, Failures: 2832, Delivery: 300}
}

// causeWeight is one entry of the target cause distribution: the weight is
// the fraction of *all* failures (Table 1 lists the top-5 per plane; the
// remainder is spread over the other standardized causes seen in traces).
type causeWeight struct {
	c        cause.Cause
	weight   float64
	scenario Scenario
	// healMed/healSigma parameterize the lognormal self-heal time.
	healMed   time.Duration
	healSigma float64
}

// distribution is the calibrated Table 1 mix. Control plane sums to 56.2 %
// and data plane to 43.8 %, matching the published class split.
var distribution = []causeWeight{
	// --- control plane: top 5 from Table 1 -------------------------------
	// Cause 9: most instances are context-migration races that the AMF
	// resolves within seconds (recovered by the first timer retry); a
	// quarter are persistent stale-GUTI desyncs.
	{cause.MM(cause.MMUEIdentityCannotBeDerived), 0.114, ScenTransient, 6 * time.Second, 0.5},
	{cause.MM(cause.MMUEIdentityCannotBeDerived), 0.038, ScenDesync, 0, 0},
	{cause.MM(cause.MMNoSuitableCellsInTA), 0.126, ScenTransient, 1200 * time.Millisecond, 1.3},
	{cause.MM(cause.MMPLMNNotAllowed), 0.103, ScenStaleConfigDevice, 0, 0},
	{cause.MM(cause.MMNoEPSBearerContextActivated), 0.056, ScenTransient, 6 * time.Second, 0.5},
	{cause.MM(cause.MMNoEPSBearerContextActivated), 0.019, ScenDesync, 0, 0},
	{cause.MM(cause.MMMessageTypeNotCompatible), 0.028, ScenTransient, 2 * time.Second, 0.8},
	// --- control plane: long tail (7.8 % together). The user-action mass
	// is calibrated to §7.1.1: 10.6 % of control-plane failures (≈6 % of
	// all failures) are unauthorized-subscriber cases SEED cannot fix.
	{cause.MM(cause.MMCongestion), 0.006, ScenTransient, 1500 * time.Millisecond, 1.0},
	{cause.MM(cause.MMNoNetworkSlicesAvailable), 0.006, ScenStaleConfigEverywhere, 40 * time.Minute, 0.5},
	{cause.MM(cause.MMIllegalUE), 0.030, ScenUserAction, 0, 0},
	{cause.MM(cause.MM5GSServicesNotAllowed), 0.030, ScenUserAction, 0, 0},
	{cause.MM(0), 0.006, ScenSilent, 8 * time.Second, 1.3}, // timeout cases carry no cause code
	// --- data plane: top 5 from Table 1 ----------------------------------
	{cause.SM(cause.SMServiceOptionNotSubscribed), 0.079, ScenStaleConfigDevice, 0, 0},
	{cause.SM(cause.SMInvalidMandatoryInfo), 0.059, ScenStaleConfigDevice, 0, 0},
	// Cause 29 splits: only expired subscriptions (≈4.5 % of data-plane
	// failures, §7.1.1) truly need the user; the rest are transient
	// authorization glitches.
	{cause.SM(cause.SMUserAuthFailed), 0.020, ScenUserAction, 0, 0},
	{cause.SM(cause.SMUserAuthFailed), 0.027, ScenTransient, 4 * time.Second, 1.0},
	{cause.SM(cause.SMRequestRejectedUnspec), 0.026, ScenTransient, 5 * time.Second, 1.2},
	{cause.SM(cause.SMInsufficientResources), 0.019, ScenTransient, 3 * time.Second, 1.0},
	// --- data plane: long tail (20.8 % together) --------------------------
	{cause.SM(cause.SMMissingOrUnknownDNN), 0.075, ScenStaleConfigDevice, 0, 0},
	{cause.SM(cause.SMMissingOrUnknownDNN), 0.024, ScenStaleConfigEverywhere, 40 * time.Minute, 0.5},
	{cause.SM(cause.SMSemanticErrorInTFT), 0.032, ScenStaleConfigEverywhere, 40 * time.Minute, 0.5},
	{cause.SM(cause.SMUnknownPDUSessionType), 0.024, ScenStaleConfigDevice, 0, 0},
	{cause.SM(cause.SMNetworkFailure), 0.022, ScenTransient, 6 * time.Second, 1.3},
	{cause.SM(cause.SMPDUSessionDoesNotExist), 0.018, ScenDesync, 0, 0},
	{cause.SM(cause.SMUnsupported5QI), 0.013, ScenStaleConfigDevice, 0, 0},
}

var carriers = []string{
	"US-A", "US-B", "US-C", "US-D", "CN-A", "CN-B", "CN-C", "CN-D",
}

var devices = []string{
	"pixel5", "pixel4", "mi10", "mi11", "galaxy-s20", "galaxy-s21",
	"oneplus8", "redmi-k30",
}

// Generate synthesizes a dataset.
func Generate(cfg GenConfig) *Dataset {
	rng := sched.NewRand(cfg.Seed)
	ds := &Dataset{Procedures: cfg.Procedures}

	total := 0.0
	for _, w := range distribution {
		total += w.weight
	}

	for i := 0; i < cfg.Failures; i++ {
		pick := rng.Float64() * total
		var chosen causeWeight
		for _, w := range distribution {
			if pick < w.weight {
				chosen = w
				break
			}
			pick -= w.weight
		}
		if chosen.c == (cause.Cause{}) {
			chosen = distribution[len(distribution)-1]
		}
		rec := Record{
			ID:       i,
			Carrier:  carriers[rng.Intn(len(carriers))],
			Device:   devices[rng.Intn(len(devices))],
			Cause:    chosen.c,
			Scenario: chosen.scenario,
		}
		if chosen.healMed > 0 {
			rec.Heal = lognormal(rng, chosen.healMed, chosen.healSigma)
		}
		ds.Failures = append(ds.Failures, rec)
	}

	for i := 0; i < cfg.Delivery; i++ {
		var kind DeliveryKind
		switch p := rng.Float64(); {
		case p < 0.30:
			kind = DeliveryTCPBlock
		case p < 0.50:
			kind = DeliveryUDPBlock
		case p < 0.75:
			kind = DeliveryDNSOutage
		default:
			kind = DeliveryStalledGateway
		}
		ds.Delivery = append(ds.Delivery, DeliveryRecord{ID: i, Kind: kind})
	}
	return ds
}

// lognormal samples a lognormal duration with the given median and sigma.
func lognormal(rng *rand.Rand, median time.Duration, sigma float64) time.Duration {
	v := float64(median) * math.Exp(rng.NormFloat64()*sigma)
	if v < float64(time.Millisecond) {
		v = float64(time.Millisecond)
	}
	return time.Duration(v)
}

// validate ensures the distribution stays consistent with Table 1.
func init() {
	var mm, sm float64
	for _, w := range distribution {
		if w.weight <= 0 {
			panic(fmt.Sprintf("trace: non-positive weight for %v", w.c))
		}
		if w.c.Plane == cause.DataPlane {
			sm += w.weight
		} else {
			mm += w.weight
		}
	}
	if math.Abs(mm-0.562) > 0.005 || math.Abs(sm-0.438) > 0.005 {
		panic(fmt.Sprintf("trace: plane split drifted: control=%.3f data=%.3f", mm, sm))
	}
}
