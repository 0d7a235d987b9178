package seed

import (
	"time"

	"github.com/seed5g/seed/internal/metrics"
)

// The experiment suite fans independent scenario cells — each a testbed
// restored from a prototype onto its own single-threaded kernel — across
// the worker pool its caller passes in. Cell seeds derive from
// sched.DeriveSeed(rootSeed, cellKey) where the key identifies the
// underlying case or trial (arms that compare schemes on the same case
// share the key, preserving the paired comparisons the shape assertions
// rely on). runner.Map puts cell i's result in slot i, and the experiment
// folds the slots once, sequentially, in cell order, so every experiment's
// result is bit-for-bit identical at any parallelism, including 1.

// cellKey namespaces per-case seed derivation so distinct cell families
// of one experiment never collide while arms that replay the same case
// under different schemes still share a seed.
func cellKey(family uint64, index int) uint64 {
	return family<<32 | uint64(uint32(index))
}

// tally is what an experiment folds its cell results into: named sample
// series plus named counters.
type tally struct {
	series map[string]*metrics.Series
	counts map[string]int
}

func newTally() *tally {
	return &tally{series: map[string]*metrics.Series{}, counts: map[string]int{}}
}

func (a *tally) add(group string, d time.Duration) {
	s := a.series[group]
	if s == nil {
		s = metrics.NewSeries()
		a.series[group] = s
	}
	s.Add(d)
}

// outcome records one cell of group: its duration when the cell recovered
// (or detected), one more under group+"/unrecov" when it did not.
func (a *tally) outcome(group string, ok bool, d time.Duration) {
	if ok {
		a.add(group, d)
	} else {
		a.counts[group+"/unrecov"]++
	}
}

// get returns the group's series, or an empty one when no cell reported.
func (a *tally) get(group string) *metrics.Series {
	if s := a.series[group]; s != nil {
		return s
	}
	return metrics.NewSeries()
}
