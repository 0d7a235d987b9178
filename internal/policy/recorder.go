package policy

import (
	"sort"

	"github.com/seed5g/seed/internal/core"
)

// Recorder is the reference DecisionTracer: it counts every event by
// stage and keeps every event, in emission order. Emission order is kernel
// execution order, which the determinism contract makes bit-identical for
// a given cell seed at any parallelism — so two Recorders attached to the
// same (spec, cell, policy) hold equal event slices.
//
// A Recorder is single-cell state: it runs synchronously on one cell's
// kernel and must not be shared across concurrently executing cells.
type Recorder struct {
	events []core.DecisionEvent
	counts map[core.DecisionStage]int
}

// NewRecorder returns an empty recorder. Callers that want zero overhead
// attach no tracer at all.
func NewRecorder() *Recorder {
	return &Recorder{counts: make(map[core.DecisionStage]int)}
}

// Decision implements core.DecisionTracer.
func (r *Recorder) Decision(ev core.DecisionEvent) {
	r.counts[ev.Stage]++
	r.events = append(r.events, ev)
}

// Events returns the recorded events in emission order. The slice is the
// recorder's own; callers must not mutate it mid-run.
func (r *Recorder) Events() []core.DecisionEvent { return r.events }

// Counts returns the per-stage event counts keyed by stage name.
func (r *Recorder) Counts() map[string]int {
	out := make(map[string]int, len(r.counts))
	for s, n := range r.counts {
		out[s.String()] = n
	}
	return out
}

// MergeCounts folds src stage counts into dst (both keyed by stage
// name) — the commutative shard-merge for corpus-wide trace accounting.
func MergeCounts(dst, src map[string]int) {
	for k, v := range src {
		dst[k] += v
	}
}

// SortedCounts renders a count map as name-sorted rows for deterministic
// JSON output.
func SortedCounts(m map[string]int) []StageCount {
	out := make([]StageCount, 0, len(m))
	for k, v := range m {
		out = append(out, StageCount{Stage: k, Count: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Stage < out[j].Stage })
	return out
}

// StageCount is one row of the per-decision trace accounting.
type StageCount struct {
	Stage string `json:"stage"`
	Count int    `json:"count"`
}
