package metrics

import "sort"

// Breakdown accumulates per-key (per-cause, per-mode, per-anything)
// disruption and action statistics under the shared cost model. It is a
// plain sequential accumulator: callers Add cell outcomes in cell order,
// which fixes the order of the float cost sums. Export via Rows is
// key-sorted, so the rendered output is deterministic too.
type Breakdown struct {
	rows map[string]*breakdownAcc
}

type breakdownAcc struct {
	disruption *Series
	cells      int
	recovered  int
	reboots    int
	notices    int
	actions    map[string]int
	actionS    float64
	composite  float64
}

// NewBreakdown returns an empty accumulator.
func NewBreakdown() *Breakdown {
	return &Breakdown{rows: make(map[string]*breakdownAcc)}
}

func (b *Breakdown) row(key string) *breakdownAcc {
	r := b.rows[key]
	if r == nil {
		r = &breakdownAcc{disruption: NewSeries(), actions: make(map[string]int)}
		b.rows[key] = r
	}
	return r
}

// Add prices one cell outcome into key's row. Disruption samples are
// recorded for recovered cells only (the series feeds percentile rows;
// unrecovered cells are counted and charged via the composite instead).
func (b *Breakdown) Add(key string, in CostInput) {
	r := b.row(key)
	c := PriceCell(in)
	r.cells++
	if in.Recovered {
		r.recovered++
		r.disruption.Add(in.Disruption)
	}
	r.reboots += in.Reboots
	if in.UserNotified {
		r.notices++
	}
	for name, n := range in.Actions {
		r.actions[name] += n
	}
	r.actionS += c.ActionS
	r.composite += c.CompositeS
}

// ActionCount is one action row of a breakdown, name-sorted on export.
type ActionCount struct {
	Action string `json:"action"`
	Count  int    `json:"count"`
}

// BreakdownRow is one key's exported statistics.
type BreakdownRow struct {
	Key       string `json:"key"`
	Cells     int    `json:"cells"`
	Recovered int    `json:"recovered"`
	// MedianS/P90S/MeanS summarize recovered-cell disruption in seconds.
	MedianS float64 `json:"median_s"`
	P90S    float64 `json:"p90_s"`
	MeanS   float64 `json:"mean_s"`
	// MeanActionCostS/MeanCompositeS are cost-model means over all cells
	// (the same pricing the policy optimizer minimizes).
	MeanActionCostS float64       `json:"mean_action_cost_s"`
	MeanCompositeS  float64       `json:"mean_composite_s"`
	Reboots         int           `json:"reboots,omitempty"`
	Notices         int           `json:"notices,omitempty"`
	Actions         []ActionCount `json:"actions,omitempty"`
}

// Rows exports the breakdown key-sorted.
func (b *Breakdown) Rows() []BreakdownRow {
	keys := make([]string, 0, len(b.rows))
	for k := range b.rows {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]BreakdownRow, 0, len(keys))
	for _, k := range keys {
		r := b.rows[k]
		row := BreakdownRow{
			Key: k, Cells: r.cells, Recovered: r.recovered,
			MedianS: r.disruption.Median().Seconds(),
			P90S:    r.disruption.Percentile(90).Seconds(),
			MeanS:   r.disruption.Mean().Seconds(),
			Reboots: r.reboots, Notices: r.notices,
		}
		if r.cells > 0 {
			row.MeanActionCostS = r.actionS / float64(r.cells)
			row.MeanCompositeS = r.composite / float64(r.cells)
		}
		names := make([]string, 0, len(r.actions))
		for name := range r.actions {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			row.Actions = append(row.Actions, ActionCount{Action: name, Count: r.actions[name]})
		}
		out = append(out, row)
	}
	return out
}
