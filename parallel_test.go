package seed

// Determinism of the parallel scenario runner: the whole evaluation, what
// seedbench -exp all runs and through the call it makes (RunAll, its steps
// side by side on one worker budget), gives the same value at 1, 4 and
// GOMAXPROCS workers for the same root seed. Every result field is compared, the
// grid cell by cell (every case, mode, seed and result, the actions,
// reboots and delivery handling no fold prints included), so a step added
// to the evaluation is under this test without editing it.

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/seed5g/seed/internal/runner"
)

func TestExperimentsParallelDeterminism(t *testing.T) {
	samples := 100
	if raceEnabled {
		samples = 30
	}
	levels := []int{1, 4, runtime.GOMAXPROCS(0)}
	roots := []int64{1, 2, 3}
	steps, err := (&Evaluation{}).Select("all")
	if err != nil {
		t.Fatal(err)
	}
	evals := make([][]Evaluation, len(roots)) // [root][level]
	for ri, root := range roots {
		for _, lvl := range levels {
			ev := Evaluation{Seed: root, Samples: samples}
			ev.RunAll(runner.New(lvl), steps, func(StepRun) {})
			evals[ri] = append(evals[ri], ev)
			if !reflect.DeepEqual(ev, evals[ri][0]) {
				t.Errorf("seed %d: the evaluation at parallel=%d differs from parallel=%d", root, lvl, levels[0])
			}
		}
	}
	// Name what differs: one subtest per step that fills a result field.
	for _, step := range steps {
		field, ok := reflect.TypeOf(Evaluation{}).FieldByNameFunc(func(name string) bool { return strings.EqualFold(name, step) })
		if !ok {
			continue // a table that only formats
		}
		t.Run(step, func(t *testing.T) {
			for ri, root := range roots {
				ref := reflect.ValueOf(evals[ri][0]).FieldByIndex(field.Index).Interface()
				for li, lvl := range levels[1:] {
					if got := reflect.ValueOf(evals[ri][li+1]).FieldByIndex(field.Index).Interface(); !reflect.DeepEqual(got, ref) {
						t.Errorf("seed %d: parallel=%d result differs from parallel=%d:\n%+v\nvs\n%+v", root, lvl, levels[0], got, ref)
					}
				}
			}
		})
	}
}
