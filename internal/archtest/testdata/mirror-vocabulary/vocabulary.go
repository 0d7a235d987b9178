// Package seed is the mirror-vocabulary fixture: the root package declares
// Mode as a type of its own instead of aliasing the internal one.
package seed

import (
	"github.com/seed5g/seed/internal/dataplane"
	"github.com/seed5g/seed/internal/trace"
	"github.com/seed5g/seed/internal/workload"
)

// Mode mirrors core.DeviceMode with a numbering of its own.
type Mode uint8 // want

type (
	AppKind             = dataplane.AppKind
	FailureScenario     = trace.Scenario
	DeliveryFailureKind = trace.DeliveryKind
	DeliveryCase        = trace.DeliveryRecord
	ReplayResult        = workload.Outcome
)
