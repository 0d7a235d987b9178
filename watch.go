package seed

import (
	"fmt"
	"strings"
)

// WatchCell runs one cell the tables count: the i-th case, in corpus order,
// that failure names, under mode, on the seed the tables derive for it from
// rootSeed, through the function ReplayDatasetGrid runs every cell with.
// failure is a FailureScenario or DeliveryFailureKind spelling, or a
// causes-table key ("control/9"). A non-nil emit is handed the cell's
// timeline as it happens (see Timeline); watching a cell changes nothing
// about its result.
func (ds *Dataset) WatchCell(failure string, i int, mode Mode, rootSeed int64, emit func(TimelineEvent)) (CountedCell, error) {
	c, family, err := ds.pick(failure, i)
	if err != nil {
		return CountedCell{}, err
	}
	c.Mode, c.Seed = mode, caseSeed(rootSeed, family, c.Position)
	return c.run(emit), nil
}

// watchedTrial is t with a Timeline handing emit the cell's events installed
// before its measure runs (t itself when emit is nil).
func watchedTrial[R any](t trial[R], emit func(TimelineEvent)) trial[R] {
	if emit == nil {
		return t
	}
	measure := t.measure
	t.measure = func(tb *Testbed, d *Device) R {
		observeCell(tb, d, Timeline{Now: tb.Now, Emit: emit})
		return measure(tb, d)
	}
	return t
}

// pick finds the i-th case the name picks, with its position and the family
// caseSeed derives its seed in (0 control, 1 data, 2 delivery).
func (ds *Dataset) pick(name string, i int) (CountedCell, uint64, error) {
	n := 0
	for k := DeliveryTCPBlock; k <= DeliveryStalledGateway; k++ {
		if k.String() != name {
			continue
		}
		for pos, dc := range ds.Delivery() {
			if dc.Kind == k {
				if n == i {
					return CountedCell{Plane: "delivery", Position: pos, Delivery: dc}, 2, nil
				}
				n++
			}
		}
	}
	match := func(fc FailureCase) bool { return causeKey(fc) == name }
	for s := ScenarioTransient; s <= ScenarioSilent; s++ {
		if s.String() == name {
			match = func(fc FailureCase) bool { return fc.Scenario == s }
		}
	}
	var planes [2]int
	for _, fc := range ds.Failures() {
		var family uint64
		if !fc.ControlPlane {
			family = 1
		}
		if match(fc) {
			if n == i {
				return CountedCell{Plane: planeOf(fc), Position: planes[family], Failure: fc}, family, nil
			}
			n++
		}
		planes[family]++
	}
	if n == 0 {
		var names []string
		for s := ScenarioTransient; s <= ScenarioSilent; s++ {
			names = append(names, s.String())
		}
		for k := DeliveryTCPBlock; k <= DeliveryStalledGateway; k++ {
			names = append(names, k.String())
		}
		return CountedCell{}, 0, fmt.Errorf("no dataset case is named %q: want one of %s, or a causes key a case has, such as control/9",
			name, strings.Join(names, ", "))
	}
	return CountedCell{}, 0, fmt.Errorf("%q names %d dataset cases: case %d is out of range", name, n, i)
}
