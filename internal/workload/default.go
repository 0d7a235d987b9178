package workload

import "github.com/seed5g/seed/internal/cause"

// DefaultSpec is the paper-anchored workload: two mobile handset
// populations (legacy vs SEED-U) commuting across a 4-cell graph with a
// diurnal rate curve, plus a fixed IoT population (SEED-R) with a
// signaling-storm burst and a degraded radio. The failure mixes carry the
// Table 1 marginals; the mobile populations route part of the cause-9
// mass through the two mobility-induced scenario classes.
func DefaultSpec() *Spec {
	diurnal := []RatePoint{{AtMin: 0, Mult: 0.6}, {AtMin: 30, Mult: 1.5}, {AtMin: 60, Mult: 0.9}}
	mobility := &MobilitySpec{Model: "random-waypoint", HopsMin: 2, HopsMax: 5, DwellMeanSec: 20}
	return &Spec{
		Name:       "paper-mix",
		HorizonMin: 120,
		Cells: CellGraph{
			N:                  4,
			DefaultContextLoss: 0.08,
			Edges: []Edge{
				// The 0→1 edge crosses an AMF-pool boundary: context
				// transfers fail often. 2→3 stays inside one pool.
				{From: 0, To: 1, ContextLoss: 0.25},
				{From: 2, To: 3, ContextLoss: 0.02},
			},
		},
		Populations: []Population{
			{
				Name: "commuter-legacy", Count: 40, Mode: "legacy",
				Arrival:  ArrivalSpec{Process: "poisson", RatePerMin: 0.25, Diurnal: diurnal},
				Mix:      mobileMix(),
				Mobility: mobility,
			},
			{
				Name: "commuter-seed", Count: 40, Mode: "seed-u",
				Arrival:  ArrivalSpec{Process: "gamma", RatePerMin: 0.25, Shape: 2, Diurnal: diurnal},
				Mix:      mobileMix(),
				Mobility: mobility,
			},
			{
				Name: "iot-fixed", Count: 24, Mode: "seed-r",
				Arrival: ArrivalSpec{
					Process: "weibull", RatePerMin: 0.12, Shape: 1.4,
					Storms: []Storm{{AtMin: 60, DurMin: 10, Mult: 6}},
				},
				Mix: StationaryMix(),
				RF:  &RFSpec{JitterMS: 2},
			},
		},
	}
}

// mobileMix is the Table 1 mix for a mobile population: the cause-9 mass
// (15.2 % of all failures) splits across plain transients, stale-GUTI
// desyncs, and the two mobility races only a multi-cell walk can produce.
func mobileMix() []CauseMix {
	mm := func(code cause.Code, w float64, scen string, healMS, sigma float64) CauseMix {
		return CauseMix{Plane: "control", Code: uint8(code), Weight: w, Scenario: scen, HealMedianMS: healMS, HealSigma: sigma}
	}
	sm := func(code cause.Code, w float64, scen string, healMS, sigma float64) CauseMix {
		return CauseMix{Plane: "data", Code: uint8(code), Weight: w, Scenario: scen, HealMedianMS: healMS, HealSigma: sigma}
	}
	return []CauseMix{
		// --- control plane (56.2 %) ---------------------------------------
		mm(cause.MMUEIdentityCannotBeDerived, 0.100, ScenTransient, 6000, 0.5),
		mm(cause.MMUEIdentityCannotBeDerived, 0.028, ScenDesync, 0, 0),
		{Weight: 0.015, Scenario: ScenHandoverDesync},
		{Weight: 0.009, Scenario: ScenTAURace},
		mm(cause.MMNoSuitableCellsInTA, 0.126, ScenTransient, 1200, 1.3),
		mm(cause.MMPLMNNotAllowed, 0.103, ScenStaleDevice, 0, 0),
		mm(cause.MMNoEPSBearerContextActivated, 0.056, ScenTransient, 6000, 0.5),
		mm(cause.MMNoEPSBearerContextActivated, 0.019, ScenDesync, 0, 0),
		mm(cause.MMMessageTypeNotCompatible, 0.028, ScenTransient, 2000, 0.8),
		mm(cause.MMCongestion, 0.006, ScenTransient, 1500, 1.0),
		mm(cause.MMNoNetworkSlicesAvailable, 0.006, ScenStaleEverywhere, 40*60*1000, 0.5),
		mm(cause.MMIllegalUE, 0.030, ScenUserAction, 0, 0),
		mm(cause.MM5GSServicesNotAllowed, 0.030, ScenUserAction, 0, 0),
		{Plane: "control", Weight: 0.006, Scenario: ScenSilent, HealMedianMS: 8000, HealSigma: 1.3},
		// --- data plane (43.8 %) ------------------------------------------
		sm(cause.SMServiceOptionNotSubscribed, 0.079, ScenStaleDevice, 0, 0),
		sm(cause.SMInvalidMandatoryInfo, 0.059, ScenStaleDevice, 0, 0),
		sm(cause.SMUserAuthFailed, 0.020, ScenUserAction, 0, 0),
		sm(cause.SMUserAuthFailed, 0.027, ScenTransient, 4000, 1.0),
		sm(cause.SMRequestRejectedUnspec, 0.026, ScenTransient, 5000, 1.2),
		sm(cause.SMInsufficientResources, 0.019, ScenTransient, 3000, 1.0),
		sm(cause.SMMissingOrUnknownDNN, 0.075, ScenStaleDevice, 0, 0),
		sm(cause.SMMissingOrUnknownDNN, 0.024, ScenStaleEverywhere, 40*60*1000, 0.5),
		sm(cause.SMSemanticErrorInTFT, 0.032, ScenStaleEverywhere, 40*60*1000, 0.5),
		sm(cause.SMUnknownPDUSessionType, 0.024, ScenStaleDevice, 0, 0),
		sm(cause.SMNetworkFailure, 0.022, ScenTransient, 6000, 1.3),
		sm(cause.SMPDUSessionDoesNotExist, 0.018, ScenDesync, 0, 0),
		sm(cause.SMUnsupported5QI, 0.013, ScenStaleDevice, 0, 0),
	}
}

// StationaryMix is the same Table 1 mix for a stationary population: the
// full cause-9 mass stays on the plain transient/desync classes. It is also
// the synthesized dataset's cause mix (trace.Generate), so Table 1 is
// declared once.
func StationaryMix() []CauseMix {
	mix := mobileMix()
	out := mix[:0:0]
	for _, m := range mix {
		switch m.Scenario {
		case ScenHandoverDesync, ScenTAURace:
			continue
		default:
			if m.Plane == "control" && m.Code == uint8(cause.MMUEIdentityCannotBeDerived) {
				if m.Scenario == ScenTransient {
					m.Weight = 0.114
				} else {
					m.Weight = 0.038
				}
			}
			out = append(out, m)
		}
	}
	return out
}
