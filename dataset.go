package seed

import (
	"encoding/json"
	"time"

	"github.com/seed5g/seed/internal/cause"
	"github.com/seed5g/seed/internal/trace"
)

// FailureScenario classifies what is actually wrong in a failure case —
// and therefore what can fix it.
type FailureScenario = trace.Scenario

const (
	// ScenarioTransient failures self-heal network-side after Heal.
	ScenarioTransient = trace.ScenTransient
	// ScenarioDesync failures are infrastructure/device state mismatches.
	ScenarioDesync = trace.ScenDesync
	// ScenarioStaleConfigDevice failures are outdated configuration in
	// the modem cache while the SIM copy is already correct.
	ScenarioStaleConfigDevice = trace.ScenStaleConfigDevice
	// ScenarioStaleConfigEverywhere failures have the outdated value on
	// modem and SIM alike.
	ScenarioStaleConfigEverywhere = trace.ScenStaleConfigEverywhere
	// ScenarioUserAction failures need the user (expired plan etc.).
	ScenarioUserAction = trace.ScenUserAction
	// ScenarioSilent failures are network timeouts (no reject at all).
	ScenarioSilent = trace.ScenSilent
)

// FailureCase is one management-failure case from the dataset.
type FailureCase struct {
	ID           int             `json:"id"`
	Carrier      string          `json:"carrier"`
	Device       string          `json:"device"`
	ControlPlane bool            `json:"control_plane"`
	CauseCode    uint8           `json:"cause_code"`
	CauseName    string          `json:"cause_name"`
	Scenario     FailureScenario `json:"scenario"`
	Heal         time.Duration   `json:"heal_ns"`
}

// DeliveryFailureKind classifies data-delivery failures.
type DeliveryFailureKind = trace.DeliveryKind

const (
	DeliveryTCPBlock       = trace.DeliveryTCPBlock
	DeliveryUDPBlock       = trace.DeliveryUDPBlock
	DeliveryDNSOutage      = trace.DeliveryDNSOutage
	DeliveryStalledGateway = trace.DeliveryStalledGateway
)

// DeliveryCase is one data-delivery failure case.
type DeliveryCase = trace.DeliveryRecord

// Dataset is a synthesized failure corpus mirroring the §3.1 statistics.
type Dataset struct {
	inner    *trace.Dataset
	failures []FailureCase
}

// GenerateDataset synthesizes the default corpus (24 k procedures, 2832
// management failures, 300 delivery failures) from the given seed.
func GenerateDataset(seedVal int64) *Dataset {
	inner := trace.Generate(seedVal)
	ds := &Dataset{inner: inner, failures: make([]FailureCase, len(inner.Failures))}
	for i, r := range inner.Failures {
		ds.failures[i] = failureCaseFrom(r)
	}
	return ds
}

// Procedures returns the total management procedures in the corpus.
func (d *Dataset) Procedures() int { return d.inner.Procedures }

// Failures returns the management failure cases: the dataset's own slice,
// for reading.
func (d *Dataset) Failures() []FailureCase { return d.failures }

// Delivery returns the data-delivery failure cases: the dataset's own
// slice, for reading.
func (d *Dataset) Delivery() []DeliveryCase { return d.inner.Delivery }

// FailureRatio returns failures per procedure (the >10 % headline).
func (d *Dataset) FailureRatio() float64 { return d.inner.FailureRatio() }

// RenderTable1 formats the corpus breakdown as the paper's Table 1.
func (d *Dataset) RenderTable1() string {
	return trace.Analyze(d.inner, 5).RenderTable1()
}

// MarshalJSON emits the corpus as JSON (cmd/tracegen's output format).
func (d *Dataset) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Procedures int            `json:"procedures"`
		Failures   []FailureCase  `json:"failures"`
		Delivery   []DeliveryCase `json:"delivery"`
	}{d.Procedures(), d.Failures(), d.Delivery()})
}

func failureCaseFrom(r trace.Record) FailureCase {
	name := "(timeout, no cause)"
	if info, ok := cause.Lookup(r.Cause); ok {
		name = info.Name
	}
	return FailureCase{
		ID:           r.ID,
		Carrier:      r.Carrier,
		Device:       r.Device,
		ControlPlane: r.Cause.Plane == cause.ControlPlane,
		CauseCode:    uint8(r.Cause.Code),
		CauseName:    name,
		Scenario:     r.Scenario,
		Heal:         r.Heal,
	}
}
