package seed

import (
	"time"

	"github.com/seed5g/seed/internal/metrics"
	"github.com/seed5g/seed/internal/runner"
)

// The experiment suite fans independent scenario cells — each a fresh
// Testbed on its own single-threaded kernel — across the worker pool its
// caller passes in. Cell seeds derive from
// sched.DeriveSeed(rootSeed, cellKey) where the key identifies the
// underlying case or trial (arms that compare schemes on the same case
// share the key, preserving the paired comparisons the shape assertions
// rely on). Shard-local statistics merge
// through the commutative metrics.Series.Merge, so every experiment's
// result is bit-for-bit identical at any parallelism, including 1.

// cellKey namespaces per-case seed derivation so distinct cell families
// of one experiment never collide while arms that replay the same case
// under different schemes still share a seed.
func cellKey(family uint64, index int) uint64 {
	return family<<32 | uint64(uint32(index))
}

// shardAcc is the order-insensitive accumulator scenario cells fold their
// outcomes into: named sample series plus named counters. Merging is
// commutative (series are multisets, counters sum), which is what lets
// worker-local shards combine into a deterministic aggregate.
type shardAcc struct {
	series map[string]*metrics.Series
	counts map[string]int
}

func newShardAcc() *shardAcc {
	return &shardAcc{series: map[string]*metrics.Series{}, counts: map[string]int{}}
}

func (a *shardAcc) add(group string, d time.Duration) {
	s := a.series[group]
	if s == nil {
		s = metrics.NewSeries(group)
		a.series[group] = s
	}
	s.Add(d)
}

func (a *shardAcc) count(key string) { a.counts[key]++ }

// countN adds n to a named counter (merged handover/context-loss totals
// from per-cell testbeds).
func (a *shardAcc) countN(key string, n int) { a.counts[key] += n }

func (a *shardAcc) merge(src *shardAcc) {
	for g, s := range src.series {
		if dst := a.series[g]; dst != nil {
			dst.Merge(s)
		} else {
			a.series[g] = s
		}
	}
	for k, v := range src.counts {
		a.counts[k] += v
	}
}

// get returns the group's series, or an empty one when no cell reported.
func (a *shardAcc) get(group string) *metrics.Series {
	if s := a.series[group]; s != nil {
		return s
	}
	return metrics.NewSeries(group)
}

// collectCells fans n cells across the pool into a merged shardAcc.
func collectCells(p *runner.Pool, n int, cell func(i int, acc *shardAcc)) *shardAcc {
	return runner.Collect(p, n, newShardAcc, cell, (*shardAcc).merge)
}
