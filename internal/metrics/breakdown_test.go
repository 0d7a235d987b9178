package metrics

import (
	"testing"
	"time"
)

func inputs() []struct {
	key string
	in  CostInput
} {
	return []struct {
		key string
		in  CostInput
	}{
		{"control/7 SEED-U", CostInput{Recovered: true, Disruption: 5 * time.Second,
			Actions: map[string]int{"A1/profile-reload": 1}}},
		{"control/7 SEED-U", CostInput{Recovered: false, UserNotified: true}},
		{"control/7 SEED-R", CostInput{Recovered: true, Disruption: 3 * time.Second,
			Actions: map[string]int{"B1/modem-reset": 1}, Reboots: 1}},
		{"data/27 SEED-U", CostInput{Recovered: true, Disruption: time.Second,
			Actions: map[string]int{"A3/dplane-config-update": 2}}},
	}
}

func TestBreakdownRowsAndPricing(t *testing.T) {
	b := NewBreakdown()
	for _, x := range inputs() {
		b.Add(x.key, x.in)
	}
	rows := b.Rows()
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	// Key-sorted export.
	for i := 1; i < len(rows); i++ {
		if rows[i-1].Key >= rows[i].Key {
			t.Fatalf("rows not key-sorted: %q before %q", rows[i-1].Key, rows[i].Key)
		}
	}
	var u *BreakdownRow
	for i := range rows {
		if rows[i].Key == "control/7 SEED-U" {
			u = &rows[i]
		}
	}
	if u == nil {
		t.Fatal("control/7 SEED-U row missing")
	}
	if u.Cells != 2 || u.Recovered != 1 || u.Notices != 1 {
		t.Fatalf("row counters = %+v", u)
	}
	// Composite mean: recovered cell 5 + 10 (A1) = 15; unrecovered cell
	// 600 + 15 (notice) = 615; mean 315.
	if u.MeanCompositeS != 315 {
		t.Fatalf("mean composite = %v, want 315", u.MeanCompositeS)
	}
	if u.MeanActionCostS != 5 {
		t.Fatalf("mean action cost = %v, want 5", u.MeanActionCostS)
	}
	if len(u.Actions) != 1 || u.Actions[0] != (ActionCount{Action: "A1/profile-reload", Count: 1}) {
		t.Fatalf("actions = %+v", u.Actions)
	}
}

func TestPriceCellUnrecovered(t *testing.T) {
	c := PriceCell(CostInput{Recovered: false, Reboots: 2, UserNotified: true})
	if c.DisruptS != UnrecoveredPenaltyS {
		t.Fatalf("disrupt = %v", c.DisruptS)
	}
	if c.ImpactS != 3*ImpactWeightS {
		t.Fatalf("impact = %v", c.ImpactS)
	}
	if c.CompositeS != c.DisruptS+c.ActionS+c.ImpactS {
		t.Fatalf("composite mismatch: %+v", c)
	}
}

func TestActionCostLadder(t *testing.T) {
	// The tier ladder must be monotone: data-plane < control-plane <
	// hardware, and each root action cheaper than its user-space twin.
	pairs := [][2]string{
		{"B3/dplane-reset", "A3/dplane-config-update"},
		{"B2/cplane-reattach", "A2/cplane-config-update"},
		{"B1/modem-reset", "A1/profile-reload"},
	}
	prev := 0.0
	for _, p := range pairs {
		b, a := ActionCostS(p[0]), ActionCostS(p[1])
		if b >= a {
			t.Fatalf("%s (%v) not cheaper than %s (%v)", p[0], b, p[1], a)
		}
		if b <= prev {
			t.Fatalf("ladder not monotone at %s", p[0])
		}
		prev = a
	}
	if ActionCostS("unknown") != 0 {
		t.Fatal("unknown action must cost 0")
	}
}
