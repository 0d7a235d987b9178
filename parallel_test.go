package seed_test

// Determinism tests for the parallel scenario runner: every experiment
// that takes a pool must produce byte-identical results at -parallel=1,
// -parallel=4 and -parallel=GOMAXPROCS for the same root seed (figure11b,
// figure12 and learning are one sequential cell each and take none).
// Sample counts are kept small; identity — not statistical shape — is
// what's under test.

import (
	"reflect"
	"runtime"
	"testing"

	seed "github.com/seed5g/seed"
	"github.com/seed5g/seed/internal/runner"
)

func TestExperimentsParallelDeterminism(t *testing.T) {
	ds := seed.GenerateDataset(1)
	experiments := []struct {
		name string
		run  func(p *runner.Pool) any
	}{
		// The whole grid, cell by cell: every case, mode, seed and result,
		// the actions, reboots and delivery handling no fold prints included.
		{"grid", func(p *runner.Pool) any { return seed.ReplayDatasetGrid(p, ds, 10, 7) }},
		{"table4", func(p *runner.Pool) any { return seed.ReplayDatasetGrid(p, ds, 8, 7).Table4() }},
		{"figure2", func(p *runner.Pool) any { return seed.ReplayDatasetGrid(p, ds, 10, 7).Figure2() }},
		{"figure3", func(p *runner.Pool) any { return seed.ExperimentFigure3(p, 3, 7) }},
		{"table5", func(p *runner.Pool) any { return seed.ExperimentTable5(p, 1, 7) }},
		{"figure11a", func(p *runner.Pool) any { return seed.ExperimentFigure11a(p, 7) }},
		{"figure13", func(p *runner.Pool) any { return seed.ExperimentFigure13(p, 7) }},
		{"coverage", func(p *runner.Pool) any { return seed.ReplayDatasetGrid(p, ds, 15, 7).Coverage() }},
		{"causes", func(p *runner.Pool) any { return seed.ReplayDatasetGrid(p, ds, 30, 7).Causes() }},
		{"mobility", func(p *runner.Pool) any { return seed.ExperimentMobility(p, 8, 7) }},
	}
	levels := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, e := range experiments {
		t.Run(e.name, func(t *testing.T) {
			var ref any
			for li, lvl := range levels {
				got := e.run(runner.New(lvl))
				if li == 0 {
					ref = got
					continue
				}
				if !reflect.DeepEqual(ref, got) {
					t.Errorf("parallel=%d result differs from parallel=%d:\n%+v\nvs\n%+v",
						lvl, levels[0], got, ref)
				}
			}
		})
	}
}
