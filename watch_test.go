package seed

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/seed5g/seed/internal/runner"
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
// is the cell the tables count. The dataset grid holds a cell exactly when a
// Table 4 or causes row counts it, and then holds the very record WatchCell
// returns — case, mode, seed, result and rows — for management and delivery
// cases alike.
func TestWatchedCellIsCountedCell(t *testing.T) {
	const root = 1
	ds := GenerateDataset(root)
	type watch struct {
		name string
		i    int
		mode Mode
		w    CountedCell
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
				n = max(n, w.Position+1)
			}
		}
	}

	type cellID struct {
		plane    string
		position int
		mode     Mode
	}
	counted := map[cellID]CountedCell{}
	for _, c := range ReplayDatasetGrid(runner.New(2), ds, n, root).cells {
		counted[cellID{c.Plane, c.Position, c.Mode}] = c
	}

	for _, wc := range watches {
		w, name := wc.w, wc.name
		where := fmt.Sprintf("%s case %d %v", name, wc.i, wc.mode)
		switch {
		case w.Plane == "delivery" && w.Delivery.Kind.String() != name:
			t.Errorf("%s: watched a %v case", where, w.Delivery.Kind)
		case w.Plane != "delivery" && w.Failure.Scenario.String() != name && causeKey(w.Failure) != name:
			t.Errorf("%s: watched a %v case with cause %s", where, w.Failure.Scenario, causeKey(w.Failure))
		}
		// Table 4 leaves out the cases no scheme can recover, and the
		// delivery kinds legacy cannot fix.
		inTable4 := w.Failure.Scenario != ScenarioUserAction
		if w.Plane == "delivery" {
			inTable4 = wc.mode != ModeLegacy || name == "stalled-gateway"
		}
		if (w.Table4Row != "") != inTable4 {
			t.Errorf("%s: Table 4 row %q", where, w.Table4Row)
		}
		c, ok := counted[cellID{w.Plane, w.Position, wc.mode}]
		if rowed := w.Table4Row != "" || w.CausesRow != ""; ok != rowed {
			t.Errorf("%s: in the grid of %d per plane %v, counted by a row %v", where, n, ok, rowed)
			continue
		}
		if ok && !reflect.DeepEqual(w, c) {
			t.Errorf("%s: watched %+v, counted %+v", where, w, c)
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
