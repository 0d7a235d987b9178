package trace

import (
	"github.com/seed5g/seed/internal/sched"
	"github.com/seed5g/seed/internal/workload"
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

var carriers = []string{
	"US-A", "US-B", "US-C", "US-D", "CN-A", "CN-B", "CN-C", "CN-D",
}

var devices = []string{
	"pixel5", "pixel4", "mi10", "mi11", "galaxy-s20", "galaxy-s21",
	"oneplus8", "redmi-k30",
}

// Generate synthesizes a dataset. Failure cases draw their cause, class
// and self-heal time from Table 1's calibrated mix, declared once as
// workload.StationaryMix (control plane 56.2 %, data plane 43.8 %).
func Generate(cfg GenConfig) *Dataset {
	rng := sched.NewRand(cfg.Seed)
	ds := &Dataset{Procedures: cfg.Procedures}

	mix := workload.StationaryMix()
	total := workload.MixTotal(mix)
	for i := 0; i < cfg.Failures; i++ {
		m := workload.PickMix(rng, mix, total)
		rec := Record{
			ID:       i,
			Carrier:  carriers[rng.Intn(len(carriers))],
			Device:   devices[rng.Intn(len(devices))],
			Cause:    m.Cause(),
			Scenario: ScenarioOf(m.Scenario),
			Heal:     m.SampleHeal(rng),
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
