package trace

import (
	"github.com/seed5g/seed/internal/sched"
	"github.com/seed5g/seed/internal/workload"
)

// The paper's §3.1 corpus shape, which every synthesized dataset has.
const (
	corpusProcedures = 24000 // management procedures
	corpusFailures   = 2832  // management failure cases among them
	corpusDelivery   = 300   // data-delivery failure cases
)

var carriers = []string{
	"US-A", "US-B", "US-C", "US-D", "CN-A", "CN-B", "CN-C", "CN-D",
}

var devices = []string{
	"pixel5", "pixel4", "mi10", "mi11", "galaxy-s20", "galaxy-s21",
	"oneplus8", "redmi-k30",
}

// Generate synthesizes the corpus from seed. Failure cases draw their
// cause, class and self-heal time from Table 1's calibrated mix, declared
// once as workload.StationaryMix (control plane 56.2 %, data plane 43.8 %).
func Generate(seed int64) *Dataset {
	rng := sched.NewRand(seed)
	ds := &Dataset{Procedures: corpusProcedures}

	mix := workload.StationaryMix()
	total := workload.MixTotal(mix)
	for i := 0; i < corpusFailures; i++ {
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

	for i := 0; i < corpusDelivery; i++ {
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
