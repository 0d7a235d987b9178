package seed

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/seed5g/seed/internal/runner"
	"github.com/seed5g/seed/internal/sched"
)

// watchNames is every name a failure can be watched by: the six scenario
// classes, the four delivery kinds, and three causes-table keys.
func watchNames() []string {
	names := []string{"control/9", "data/26", "control/22"}
	for s := ScenarioTransient; s <= ScenarioSilent; s++ {
		names = append(names, s.String())
	}
	for k := DeliveryTCPBlock; k <= DeliveryStalledGateway; k++ {
		names = append(names, k.String())
	}
	return names
}

// TestWatchedCellIsCountedCell: the cell WatchCell runs (and seedsim prints)
// is the cell the tables count. A management case's result is the one the
// shared management grid holds for it, on the grid's seed; a delivery case's
// is the replay on the seed Table 4 derives from its position.
func TestWatchedCellIsCountedCell(t *testing.T) {
	const root = 1
	ds := GenerateDataset(root)
	type watch struct {
		name string
		i    int
		mode Mode
		w    Watched
	}
	var watches []watch
	n := 0
	for _, name := range watchNames() {
		for i := 0; i < 2; i++ {
			for _, mode := range Modes {
				w, err := ds.WatchCell(name, i, mode, root, nil)
				if err != nil {
					t.Fatalf("WatchCell(%q, %d, %v): %v", name, i, mode, err)
				}
				watches = append(watches, watch{name, i, mode, w})
				if w.Plane != "delivery" {
					n = max(n, w.Position+1)
				}
			}
		}
	}

	grid := ReplayManagementGrid(runner.New(2), ds, n, root)
	type cellID struct {
		id   int
		mode Mode
	}
	counted := map[cellID]mgmtCell{}
	for _, c := range grid.cells {
		counted[cellID{c.fc.ID, c.mode}] = c
	}
	deliveryPos := map[int]int{}
	for pos, dc := range ds.Delivery() {
		deliveryPos[dc.ID] = pos
	}

	for _, wc := range watches {
		w, name := wc.w, wc.name
		where := fmt.Sprintf("%s case %d %v", name, wc.i, wc.mode)
		if w.Plane == "delivery" {
			if w.Delivery.Kind.String() != name {
				t.Errorf("%s: watched a %v case", where, w.Delivery.Kind)
			}
			pos := deliveryPos[w.Delivery.ID]
			seedVal := sched.DeriveSeed(root, cellKey(2, pos))
			if w.Position != pos || w.Seed != seedVal {
				t.Errorf("%s: position %d seed %d, Table 4 replays delivery case %d at position %d on seed %d",
					where, w.Position, w.Seed, w.Delivery.ID, pos, seedVal)
			}
			if want := ReplayDelivery(w.Delivery, wc.mode, seedVal); !reflect.DeepEqual(w.Handling, want) {
				t.Errorf("%s: watched %+v, counted %+v", where, w.Handling, want)
			}
			if w.Recovered != w.Handling.Recovered || w.Value != w.Handling.HandlingTime {
				t.Errorf("%s: reads %v %v, Table 4 folds %v %v", where, w.Recovered, w.Value, w.Handling.Recovered, w.Handling.HandlingTime)
			}
			continue
		}
		if w.Failure.Scenario.String() != name && causeKey(w.Failure) != name {
			t.Errorf("%s: watched a %v case with cause %s", where, w.Failure.Scenario, causeKey(w.Failure))
		}
		c, ok := counted[cellID{w.Failure.ID, wc.mode}]
		if !ok {
			t.Errorf("%s: dataset case %d at position %d is not in the grid of %d per plane", where, w.Failure.ID, w.Position, n)
			continue
		}
		if w.Seed != c.seed {
			t.Errorf("%s: watched on seed %d, the grid replays dataset case %d on %d", where, w.Seed, w.Failure.ID, c.seed)
		}
		if !reflect.DeepEqual(w.Management, c.res) {
			t.Errorf("%s: watched %+v, counted %+v", where, w.Management, c.res)
		}
		if w.Recovered != c.res.Recovered || w.Value != c.res.Disruption {
			t.Errorf("%s: reads %v %v, Table 4 folds %v %v", where, w.Recovered, w.Value, c.res.Recovered, c.res.Disruption)
		}
		if want := causeKey(c.fc) + " " + wc.mode.String(); w.CausesRow != want {
			t.Errorf("%s: causes row %q, want %q", where, w.CausesRow, want)
		}
	}

	for _, bad := range []struct {
		name string
		i    int
		want string
	}{
		{"desync", 0, "no dataset case is named"},
		{"control/999", 0, "no dataset case is named"},
		{"state-desync", 1 << 20, "out of range"},
		{"stalled-gateway", -1, "out of range"},
	} {
		if _, err := ds.WatchCell(bad.name, bad.i, ModeSEEDR, root, nil); err == nil || !strings.Contains(err.Error(), bad.want) {
			t.Errorf("WatchCell(%q, %d): error %v, want %q", bad.name, bad.i, err, bad.want)
		}
	}
}
