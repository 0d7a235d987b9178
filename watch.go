package seed

import (
	"fmt"
	"strings"
	"time"
)

// Watched is one dataset cell as the tables count it: which case it is, the
// seed they run it on, its full result, and the value the Table 4 row that
// counts it reads.
type Watched struct {
	// Plane is "control" or "data" for a management case, "delivery" for a
	// delivery case. Position is the case's position among its plane's cases
	// in corpus order: a table run at -samples n counts the cell when
	// Position < n.
	Plane    string
	Position int
	Seed     int64
	// Failure and Management are a management cell's case and result,
	// Delivery and Handling a delivery cell's.
	Failure    FailureCase
	Management ReplayResult
	Delivery   DeliveryCase
	Handling   DeliveryReplayResult
	// Recovered and Value are what Table 4 folds: the Disruption of a
	// management cell, the HandlingTime of a delivery cell.
	Recovered bool
	Value     time.Duration
	// Table4Row and CausesRow name the rows that count the cell, "" where
	// none does: Table 4 leaves out user-action cases and the delivery kinds
	// legacy cannot fix, and the causes table has no delivery rows.
	Table4Row string
	CausesRow string
}

// WatchCell runs one cell the tables count: the i-th case, in corpus order,
// that failure names, under mode, on the seed the tables derive for it from
// rootSeed, as the same trial they run. failure is a FailureScenario or
// DeliveryFailureKind spelling, or a causes-table key ("control/9"). A
// non-nil emit is handed the cell's timeline as it happens (see Timeline);
// watching a cell changes nothing about its result.
func (ds *Dataset) WatchCell(failure string, i int, mode Mode, rootSeed int64, emit func(TimelineEvent)) (Watched, error) {
	w, family, err := ds.pick(failure, i)
	if err != nil {
		return Watched{}, err
	}
	w.Seed = caseSeed(rootSeed, family, w.Position)
	if w.Plane == "delivery" {
		w.Handling = watchedTrial(deliveryTrial(w.Delivery, mode), emit).run(w.Seed)
		w.Recovered, w.Value = w.Handling.Recovered, w.Handling.HandlingTime
		if deliveryCounted(w.Delivery, mode) {
			w.Table4Row = table4Class[w.Plane] + " " + mode.String()
		}
		return w, nil
	}
	c := caseCellRun(w.Failure)
	w.Management = watchedTrial(trial[ReplayResult]{c.from(mode), c.measure}, emit).run(w.Seed)
	w.Recovered, w.Value = w.Management.Recovered, w.Management.Disruption
	if w.Failure.Scenario != ScenarioUserAction {
		w.Table4Row = table4Class[w.Plane] + " " + mode.String()
	}
	w.CausesRow = causeKey(w.Failure) + " " + mode.String()
	return w, nil
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
func (ds *Dataset) pick(name string, i int) (Watched, uint64, error) {
	n := 0
	for k := DeliveryTCPBlock; k <= DeliveryStalledGateway; k++ {
		if k.String() != name {
			continue
		}
		for pos, dc := range ds.Delivery() {
			if dc.Kind == k {
				if n == i {
					return Watched{Plane: "delivery", Position: pos, Delivery: dc}, 2, nil
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
				return Watched{Plane: planeOf(fc), Position: planes[family], Failure: fc}, family, nil
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
		return Watched{}, 0, fmt.Errorf("no dataset case is named %q: want one of %s, or a causes key a case has, such as control/9",
			name, strings.Join(names, ", "))
	}
	return Watched{}, 0, fmt.Errorf("%q names %d dataset cases: case %d is out of range", name, n, i)
}
