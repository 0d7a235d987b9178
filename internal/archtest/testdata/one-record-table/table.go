// Package fleet is the one-record-table fixture: Algorithm 1's table spelled
// out again outside internal/core.
package fleet

import (
	"github.com/seed5g/seed/internal/cause"
	"github.com/seed5g/seed/internal/core"
)

// table counts actions per cause, as core.Records already does.
type table map[cause.Cause]map[core.ActionID]int // want
