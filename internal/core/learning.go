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
	net Records
}

// NewLearner creates a learner with the given rate and random source.
func NewLearner(lr float64, rng *rand.Rand) *Learner {
	return &Learner{LR: lr, rng: rng, net: Records{}}
}

// Crowdsource merges one SIM's uploaded records (Algorithm 1 lines 8–10).
func (l *Learner) Crowdsource(records Records) { l.net.Merge(records) }

// Evidence returns the total observations for a cause.
func (l *Learner) Evidence(c cause.Cause) int { return l.net.Evidence(c) }

// Best returns the argmax action for a cause and whether any evidence
// exists.
func (l *Learner) Best(c cause.Cause) (ActionID, bool) { return l.net.Best(c) }

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

// Export returns a deep copy of the crowd-sourced table, the form the
// fleet tier folds and serializes (fleet.MarshalModel), so a sequential
// in-process fold is the oracle for the networked aggregate.
func (l *Learner) Export() Records { return l.net.Clone() }
