package policy

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	seed "github.com/seed5g/seed"
	"github.com/seed5g/seed/internal/cause"
	"github.com/seed5g/seed/internal/core"
	"github.com/seed5g/seed/internal/runner"
	"github.com/seed5g/seed/internal/workload"
)

// traceSpec covers the three scenario classes the golden-trace gate
// replays: management desync plus the two mobility races, under both
// SEED modes.
func traceSpec() *workload.Spec {
	return &workload.Spec{
		Name:       "trace-mini",
		HorizonMin: 20,
		Cells:      workload.CellGraph{N: 3, DefaultContextLoss: 0.2, Edges: []workload.Edge{{From: 0, To: 1, ContextLoss: 0.5}}},
		Populations: []workload.Population{
			{
				Name: "movers", Count: 3, Mode: "seed-u",
				Arrival: workload.ArrivalSpec{Process: "poisson", RatePerMin: 0.4},
				Mix: []workload.CauseMix{
					{Plane: "data", Code: 54, Weight: 0.4, Scenario: workload.ScenDesync},
					{Weight: 0.3, Scenario: workload.ScenHandoverDesync},
					{Weight: 0.3, Scenario: workload.ScenTAURace},
				},
				Mobility: &workload.MobilitySpec{Model: "random-waypoint", HopsMin: 2, HopsMax: 4, DwellMeanSec: 10},
			},
			{
				Name: "rooted", Count: 2, Mode: "seed-r",
				Arrival: workload.ArrivalSpec{Process: "poisson", RatePerMin: 0.3},
				Mix: []workload.CauseMix{
					{Plane: "control", Code: 9, Weight: 1, Scenario: workload.ScenDesync},
				},
			},
		},
	}
}

// classCells picks the first eligible cell of each scenario class per
// compile seed.
func classCells(t *testing.T, rootSeed int64) []workload.Cell {
	t.Helper()
	all, err := workload.Compile(traceSpec(), rootSeed)
	if err != nil {
		t.Fatal(err)
	}
	var out []workload.Cell
	for _, class := range []string{workload.ScenDesync, workload.ScenHandoverDesync, workload.ScenTAURace} {
		c, err := FirstCellByScenario(all, class)
		if err != nil {
			t.Fatalf("seed %d: %v", rootSeed, err)
		}
		out = append(out, c)
	}
	return out
}

// TestGoldenTraceParallelDeterminism: the full decision trace of every
// (scenario class, seed) cell is event-for-event identical when the cells
// fan across 1 and 8 workers.
func TestGoldenTraceParallelDeterminism(t *testing.T) {
	sp := traceSpec()
	paper := Paper()
	for _, rootSeed := range []int64{3, 11, 29} {
		cells := classCells(t, rootSeed)
		trace := func(p *runner.Pool) [][]core.DecisionEvent {
			return runner.Map(p, len(cells), func(i int) []core.DecisionEvent {
				_, evs := TraceCell(sp, cells[i], paper, nil)
				return evs
			})
		}
		seq := trace(runner.New(1))
		par := trace(runner.New(8))
		for i := range cells {
			if len(seq[i]) == 0 {
				t.Fatalf("seed %d cell %d (%s): empty trace", rootSeed, cells[i].Index, cells[i].Scenario)
			}
			if !slices.Equal(seq[i], par[i]) {
				t.Fatalf("seed %d cell %d (%s): trace differs between 1 and 8 workers",
					rootSeed, cells[i].Index, cells[i].Scenario)
			}
		}
	}
}

// TestTracedOutcomeMatchesUntraced pins the zero-perturbation contract:
// attaching a pure-observer tracer (and the paper policy's knobs, which
// equal the defaults) must not change a cell's measured outcome relative
// to the uninstrumented path — including desync cells, whose
// uninstrumented replays run from cloned prototype snapshots.
func TestTracedOutcomeMatchesUntraced(t *testing.T) {
	sp := traceSpec()
	for _, c := range classCells(t, 11) {
		mode, _ := seed.ParseMode(c.Mode)
		plain := seed.RunWorkloadCell(sp, c, mode, nil)
		traced, evs := TraceCell(sp, c, Paper(), nil)
		if !reflect.DeepEqual(plain, traced) {
			t.Fatalf("cell %d (%s): traced outcome %+v != untraced %+v", c.Index, c.Scenario, traced, plain)
		}
		if len(evs) == 0 {
			t.Fatalf("cell %d (%s): no events traced", c.Index, c.Scenario)
		}
	}
}

// TestCounterfactualMatrix checks matrix shape, pin identity, and that
// pinning the proposed action reproduces the baseline composite.
func TestCounterfactualMatrix(t *testing.T) {
	sp := traceSpec()
	all, err := workload.Compile(sp, 11)
	if err != nil {
		t.Fatal(err)
	}
	c, err := FirstCellByScenario(all, workload.ScenHandoverDesync)
	if err != nil {
		t.Fatal(err)
	}
	m := Counterfactual(runner.New(4), sp, c, Paper(), 2)
	if m.Decisions == 0 {
		t.Skipf("cell %d executed no decisions", c.Index)
	}
	if !m.PinIdentity {
		t.Fatal("pinning decision 0 to its own proposal did not reproduce the baseline trace")
	}
	wantRows := m.Decisions
	if wantRows > 2 {
		wantRows = 2
	}
	if len(m.Rows) != wantRows {
		t.Fatalf("rows = %d, want %d", len(m.Rows), wantRows)
	}
	for _, row := range m.Rows {
		if len(row.Alternatives) != 6 {
			t.Fatalf("seq %d: %d alternatives, want 6", row.Seq, len(row.Alternatives))
		}
		for _, alt := range row.Alternatives {
			if alt.Action == row.Proposed && alt.DeltaS != 0 {
				t.Fatalf("seq %d: pinning the proposed action %s changed the composite by %v",
					row.Seq, alt.Action, alt.DeltaS)
			}
		}
	}
}

// TestEvaluateParallelDeterminism: the corpus score and merged trace
// counts are identical at 1 and 8 workers.
func TestEvaluateParallelDeterminism(t *testing.T) {
	sp := traceSpec()
	all, err := workload.Compile(sp, 11)
	if err != nil {
		t.Fatal(err)
	}
	cells := EligibleCells(all, 10)
	s1, c1 := Evaluate(runner.New(1), sp, cells, Paper(), core.TraceFull)
	s8, c8 := Evaluate(runner.New(8), sp, cells, Paper(), core.TraceFull)
	if s1 != s8 {
		t.Fatalf("score differs: %+v vs %+v", s1, s8)
	}
	if !reflect.DeepEqual(c1, c8) {
		t.Fatalf("trace counts differ: %v vs %v", c1, c8)
	}
	if s1.TotalDecisions == 0 {
		t.Fatal("no decisions recorded over the corpus")
	}
}

// TestDefaultCorpusNeverReachesLearner traces the paper policy over every
// eligible cell of the built-in paper-mix corpus and finds no learner
// suggestion, no learner null and no crowdsourced upload: no cell uploads
// records, so the carrier's learner has no evidence and its logistic rate
// is never read. That is why Policy has no learner-rate knob; a corpus
// whose cells upload records fails here, and would make the rate a knob the
// search can move again.
func TestDefaultCorpusNeverReachesLearner(t *testing.T) {
	sp := workload.DefaultSpec()
	all, err := workload.Compile(sp, 1)
	if err != nil {
		t.Fatal(err)
	}
	cells := EligibleCells(all, 0)
	score, counts := Evaluate(runner.New(0), sp, cells, Paper(), core.TraceFull)
	if score.TotalDecisions == 0 {
		t.Fatalf("no decisions traced over %d cells", len(cells))
	}
	for _, st := range []core.DecisionStage{core.StageInfraLearnerSuggest, core.StageInfraLearnerNull, core.StageInfraCrowdsource} {
		if n := counts[st.String()]; n != 0 {
			t.Errorf("%d %s events over %d paper-mix cells: the learner is reached, so its rate is a policy knob again", n, st, len(cells))
		}
	}
}

// TestSearchBeatsOrTiesPaperDeterministically: the paper policy is in the
// candidate set, so best ≤ paper; and the whole search is reproducible.
func TestSearchBeatsOrTiesPaper(t *testing.T) {
	sp := traceSpec()
	all, err := workload.Compile(sp, 11)
	if err != nil {
		t.Fatal(err)
	}
	cells := EligibleCells(all, 8)
	cfg := SearchConfig{Seed: 11, Rounds: 1, TopK: 2, Mutants: 1}
	a := Search(runner.New(4), sp, cells, cfg)
	if a.Best.Score.Composite > a.Paper.Score.Composite {
		t.Fatalf("best %.3f worse than paper %.3f", a.Best.Score.Composite, a.Paper.Score.Composite)
	}
	if a.ImprovementS < 0 {
		t.Fatalf("negative improvement %v", a.ImprovementS)
	}
	b := Search(runner.New(1), sp, cells, cfg)
	if !a.Best.Policy.Equal(b.Best.Policy) || a.Best.Score != b.Best.Score {
		t.Fatalf("search not deterministic across worker counts: %+v vs %+v", a.Best, b.Best)
	}
}

// TestMutateBounds: mutation never leaves the legal knob ranges and
// always returns a valid 6-action trial order.
func TestMutateBounds(t *testing.T) {
	p := Paper()
	for i := 0; i < 200; i++ {
		rng := testRNG(int64(i))
		q := mutate(p, rng)
		for _, d := range []time.Duration{q.CPlaneWait, q.ConflictWindow, q.RateLimitGap, q.TrialWindow} {
			if d < minTimer || d > maxTimer {
				t.Fatalf("mutation %d: timer %v out of bounds", i, d)
			}
		}
		if len(q.TrialOrder) != 6 {
			t.Fatalf("mutation %d: order %v", i, q.TrialOrder)
		}
		seen := map[core.ActionID]bool{}
		for _, a := range q.TrialOrder {
			if seen[a] {
				t.Fatalf("mutation %d: duplicate %v in order", i, a)
			}
			seen[a] = true
		}
		p = q // walk the chain to cover compounded mutations
	}
}

func testRNG(s int64) *rand.Rand { return rand.New(rand.NewSource(s)) }

func TestEligible(t *testing.T) {
	if Eligible(workload.Cell{Mode: "legacy", Scenario: workload.ScenDesync}) {
		t.Fatal("legacy cell must be ineligible")
	}
	if Eligible(workload.Cell{Mode: "seed-u", Scenario: workload.ScenUserAction}) {
		t.Fatal("user-action cell must be ineligible")
	}
	if !Eligible(workload.Cell{Mode: "seed-r", Scenario: workload.ScenTAURace}) {
		t.Fatal("seed-r tau-race cell must be eligible")
	}
}

// TestTraceDigestsPinned pins the seedtrace/1 fingerprint the reports print
// (Matrix.BaselineDigest): the digest of every golden-trace cell and of the
// empty trace. Trace equality compares events, so nothing else ties Encode
// down; a digest that moves here moves a report byte.
func TestTraceDigestsPinned(t *testing.T) {
	sp := traceSpec()
	want := map[int64][]string{ // desync, handover-desync, tau-race
		3:  {"904d238a7e6dbf68", "0d23c24f192c6c2b", "62103815f214180e"},
		11: {"c281a15fbeb6dbe7", "8272d9e4d56d9aa8", "9e643d132376fbdf"},
		29: {"904d238a7e6dbf68", "93f05bed9aa13ad0", "ee7fa039f736780f"},
	}
	for rootSeed, digests := range want {
		for i, c := range classCells(t, rootSeed) {
			_, evs := TraceCell(sp, c, Paper(), nil)
			if got := Digest(evs); got != digests[i] {
				t.Errorf("seed %d cell %d (%s): digest %s, want %s", rootSeed, c.Index, c.Scenario, got, digests[i])
			}
		}
	}
	if got := Digest(nil); got != "94774780869fca8d" {
		t.Errorf("empty trace digest %s, want 94774780869fca8d", got)
	}
	// Digest is stable and input-sensitive, hostile IMSIs included.
	evs := hostileEvents()
	if Digest(evs) != Digest(hostileEvents()) {
		t.Fatal("digest not deterministic")
	}
	if Digest(evs) == Digest(nil) {
		t.Fatal("digest ignores events")
	}
}

// hostileEvents exercise every field, including IMSI strings with spaces
// and escapes.
func hostileEvents() []core.DecisionEvent {
	return []core.DecisionEvent{
		{At: 1500 * time.Millisecond, Stage: core.StageDiagReceived, IMSI: "001010000000001",
			Plane: cause.ControlPlane, Code: 9, Kind: core.DiagCause, Seq: -1},
		{At: 2 * time.Second, Stage: core.StageExecute, IMSI: "001010000000001",
			Proposed: core.ActionA1, Action: core.ActionB1, Seq: 3, Wait: 5 * time.Second, Evidence: 42},
		{Stage: core.StageInfraCrowdsource, IMSI: "", Evidence: 7, Seq: -1},
		{Stage: core.StageOverridden, IMSI: "imsi with spaces\nand\tescapes\"", Seq: 0},
		{At: -time.Second, Stage: core.DecisionStage(255), Seq: -2147483648, Evidence: -1},
	}
}
