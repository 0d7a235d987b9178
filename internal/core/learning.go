package core

import (
	"math"
	"math/rand"

	"github.com/seed5g/seed/internal/cause"
)

// Learner is the infrastructure side of Algorithm 1: it crowdsources the
// per-cause success records uploaded by SIMs (NetRecord) and decides what
// suggestion to attach when the same unknown cause recurs. A fraction of
// devices — growing with how much evidence has accumulated, via the
// logistic gate of line 14 — receives the argmax action; the rest receive
// no suggestion so that their trials keep training the model.
type Learner struct {
	// LR is the learning rate of the logistic gate.
	LR float64

	rng *rand.Rand
	net map[cause.Cause]map[ActionID]int
}

// NewLearner creates a learner with the given rate and random source.
func NewLearner(lr float64, rng *rand.Rand) *Learner {
	return &Learner{LR: lr, rng: rng, net: make(map[cause.Cause]map[ActionID]int)}
}

// Crowdsource merges one SIM's uploaded records (Algorithm 1 lines 8–10).
func (l *Learner) Crowdsource(records map[cause.Cause]map[ActionID]int) {
	for c, acts := range records {
		if l.net[c] == nil {
			l.net[c] = make(map[ActionID]int)
		}
		for a, n := range acts {
			l.net[c][a] += n
		}
	}
}

// Evidence returns the total observations for a cause.
func (l *Learner) Evidence(c cause.Cause) int {
	total := 0
	for _, n := range l.net[c] {
		total += n
	}
	return total
}

// Best returns the argmax action for a cause and whether any evidence
// exists (BestAction over the cause's counts).
func (l *Learner) Best(c cause.Cause) (ActionID, bool) { return BestAction(l.net[c]) }

// BestAction returns the action with the most successes and whether any
// action has a positive count. Ties break toward the cheaper action (later
// in LearningOrder means more disruptive, so prefer earlier).
func BestAction(acts map[ActionID]int) (ActionID, bool) {
	var best ActionID
	bestN := 0
	for _, a := range LearningOrder {
		if n := acts[a]; n > bestN {
			best, bestN = a, n
		}
	}
	return best, bestN > 0
}

// Suggest decides what to send for an unknown cause (lines 11–17): the
// argmax action with probability 1/(1+e^(−LR·evidence)), else nothing.
func (l *Learner) Suggest(c cause.Cause) (ActionID, bool) {
	best, has := l.Best(c)
	if !has {
		return 0, false
	}
	p := 1 / (1 + math.Exp(-l.LR*float64(l.Evidence(c))))
	if l.rng.Float64() < p {
		return best, true
	}
	return 0, false
}

// Causes returns the number of distinct causes with evidence.
func (l *Learner) Causes() int { return len(l.net) }

// Export returns a deep copy of the crowd-sourced model: every cause's
// per-action success counts, the form the fleet tier folds and serializes
// (fleet.MarshalModel), so a sequential in-process fold is the oracle for
// the networked aggregate.
func (l *Learner) Export() map[cause.Cause]map[ActionID]int {
	out := make(map[cause.Cause]map[ActionID]int, len(l.net))
	for c, acts := range l.net {
		m := make(map[ActionID]int, len(acts))
		for a, n := range acts {
			m[a] = n
		}
		out[c] = m
	}
	return out
}
