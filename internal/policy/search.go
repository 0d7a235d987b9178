package policy

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"github.com/seed5g/seed/internal/core"
	"github.com/seed5g/seed/internal/runner"
	"github.com/seed5g/seed/internal/sched"
	"github.com/seed5g/seed/internal/workload"
)

// Policy search: a bounded grid over the knobs with the widest observed
// effect (the CPlaneWait transient window, the trial pacing, the trial
// order), then evolutionary refinement of the grid's survivors over the
// full knob vector. The paper policy is always in the grid, so the
// search result beats or ties it by construction — the interesting
// output is by how much, and which knob moved.
//
// Determinism: every random choice comes from rand streams derived with
// sched.DeriveSeedN(cfg.Seed, round, parent, mutant), and candidate
// ranking breaks composite ties by insertion order (paper-first), so a
// (spec, corpus seed, search seed) triple fully determines the result at
// any parallelism.

// Candidate pairs a policy with its corpus score.
type Candidate struct {
	Policy Policy `json:"policy"`
	// Order is the trial order rendered readably ("B3>A3>...").
	Order string `json:"order"`
	Score Score  `json:"score"`
}

// SearchConfig bounds the search.
type SearchConfig struct {
	// Seed drives mutation randomness (not cell execution — cells keep
	// their compiled seeds regardless of policy).
	Seed int64 `json:"seed"`
	// Rounds of evolutionary refinement after the grid (0 = grid only).
	Rounds int `json:"rounds"`
	// TopK survivors carried between rounds.
	TopK int `json:"top_k"`
	// Mutants spawned per survivor per round.
	Mutants int `json:"mutants"`
	// Progress, when non-nil, receives one line per search stage.
	Progress func(string) `json:"-"`
}

// SearchResult is the search outcome: the paper baseline, the best
// candidate found, and the full ranked grid for the report.
type SearchResult struct {
	Config    SearchConfig `json:"config"`
	Evaluated int          `json:"evaluated"`
	Paper     Candidate    `json:"paper"`
	Best      Candidate    `json:"best"`
	// ImprovementS is paper composite − best composite (≥ 0 always,
	// because the paper policy is itself a candidate).
	ImprovementS float64 `json:"improvement_s"`
	// Grid is the ranked grid phase (best first), before refinement.
	Grid []Candidate `json:"grid"`
}

// gridOrders are the trial-order arms: the paper's cheapest-first ladder,
// a root-tier-first ladder, and an app-tier-first ladder.
func gridOrders() [][]core.ActionID {
	return [][]core.ActionID{
		append([]core.ActionID(nil), core.LearningOrder...),
		{core.ActionB3, core.ActionB2, core.ActionB1, core.ActionA3, core.ActionA2, core.ActionA1},
		{core.ActionA3, core.ActionA2, core.ActionA1, core.ActionB3, core.ActionB2, core.ActionB1},
	}
}

// gridPolicies enumerates the grid with the paper policy first.
func gridPolicies() []Policy {
	paper := Paper()
	out := []Policy{paper}
	waits := []time.Duration{time.Second, 2 * time.Second, 4 * time.Second}
	windows := []time.Duration{5 * time.Second, 10 * time.Second, 20 * time.Second}
	for _, w := range waits {
		for _, tw := range windows {
			for _, ord := range gridOrders() {
				p := paper
				p.CPlaneWait = w
				p.TrialWindow = tw
				p.TrialOrder = ord
				if p.Equal(paper) {
					continue // already first
				}
				out = append(out, p)
			}
		}
	}
	return out
}

// Search runs the grid + refinement over the (already filtered) cell set.
func Search(p *runner.Pool, sp *workload.Spec, cells []workload.Cell, cfg SearchConfig) SearchResult {
	progress := cfg.Progress
	if progress == nil {
		progress = func(string) {}
	}
	res := SearchResult{Config: cfg}

	evalOne := func(pol Policy) Candidate {
		s, _ := Evaluate(p, sp, cells, pol, core.TraceOff)
		res.Evaluated++
		return Candidate{Policy: pol, Order: OrderNames(pol.TrialOrder), Score: s}
	}

	grid := gridPolicies()
	progress(fmt.Sprintf("grid: %d policies × %d cells", len(grid), len(cells)))
	pool := make([]Candidate, 0, len(grid))
	for _, pol := range grid {
		pool = append(pool, evalOne(pol))
	}
	res.Paper = pool[0]
	rank(pool)
	res.Grid = append([]Candidate(nil), pool...)
	progress(fmt.Sprintf("grid best: %.2fs composite (%s)", pool[0].Score.Composite, pool[0].Policy))

	topK := cfg.TopK
	if topK < 1 {
		topK = 1
	}
	for round := 0; round < cfg.Rounds; round++ {
		if len(pool) > topK {
			pool = pool[:topK]
		}
		next := append([]Candidate(nil), pool...)
		for parent := 0; parent < len(pool); parent++ {
			for m := 0; m < cfg.Mutants; m++ {
				rng := sched.NewRand(sched.DeriveSeedN(cfg.Seed, uint64(round+1), uint64(parent), uint64(m)))
				next = append(next, evalOne(mutate(pool[parent].Policy, rng)))
			}
		}
		rank(next)
		pool = next
		progress(fmt.Sprintf("round %d best: %.2fs composite (%s)", round+1, pool[0].Score.Composite, pool[0].Policy))
	}
	res.Best = pool[0]
	res.ImprovementS = res.Paper.Score.Composite - res.Best.Score.Composite
	return res
}

// rank sorts candidates best-first; the stable sort keeps insertion order
// (paper first, then grid order, then mutation order) on exact ties.
func rank(cs []Candidate) {
	sort.SliceStable(cs, func(i, j int) bool { return cs[i].Score.Composite < cs[j].Score.Composite })
}

// mutation bounds for the timer knobs.
const (
	minTimer = 100 * time.Millisecond
	maxTimer = 60 * time.Second
)

// mutate perturbs one knob of p. Timer knobs scale by a factor from
// {0.5, 0.8, 1.25, 2}; LR scales by {0.5, 2} clamped to [0.01, 1];
// the order knob swaps two adjacent trial positions.
func mutate(p Policy, rng *rand.Rand) Policy {
	q := p
	q.TrialOrder = append([]core.ActionID(nil), p.TrialOrder...)
	factors := []float64{0.5, 0.8, 1.25, 2}
	scale := func(d time.Duration) time.Duration {
		out := time.Duration(float64(d) * factors[rng.Intn(len(factors))])
		if out < minTimer {
			out = minTimer
		}
		if out > maxTimer {
			out = maxTimer
		}
		return out
	}
	switch rng.Intn(6) {
	case 0:
		q.CPlaneWait = scale(q.CPlaneWait)
	case 1:
		q.ConflictWindow = scale(q.ConflictWindow)
	case 2:
		q.RateLimitGap = scale(q.RateLimitGap)
	case 3:
		q.TrialWindow = scale(q.TrialWindow)
	case 4:
		if rng.Intn(2) == 0 {
			q.LR *= 0.5
		} else {
			q.LR *= 2
		}
		if q.LR < 0.01 {
			q.LR = 0.01
		}
		if q.LR > 1 {
			q.LR = 1
		}
	default:
		if len(q.TrialOrder) > 1 {
			i := rng.Intn(len(q.TrialOrder) - 1)
			q.TrialOrder[i], q.TrialOrder[i+1] = q.TrialOrder[i+1], q.TrialOrder[i]
		}
	}
	return q
}
