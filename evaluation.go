package seed

import (
	"fmt"
	rtmetrics "runtime/metrics"
	"slices"
	"strings"
	"time"

	"github.com/seed5g/seed/internal/core"
	"github.com/seed5g/seed/internal/runner"
)

// Evaluation is the paper's §7 evaluation as a value: the root seed, the
// cases per failure class, and a field per result its steps fill. The
// steps and their run parameters are defined here and nowhere else.
// RunAll runs a selection of steps as a graph on one worker budget;
// running every step Select("all") returns fills the whole value.
type Evaluation struct {
	Seed    int64
	Samples int

	// Grid is every dataset cell Table 4, Figure 2, the per-cause breakdown
	// and the coverage count, replayed once; those four fold it.
	Grid      DatasetGrid
	Figure2   Figure2Result
	Table4    Table4Result
	Causes    CausesResult
	Coverage  CoverageResult
	Figure3   Figure3Result
	Table5    Table5Result
	Figure11a Figure11aResult
	Figure11b Figure11bResult
	Figure12  Figure12Result
	Figure13  Figure13Result
	Learning  LearningResult
	Mobility  MobilityResult

	dataset *Dataset // generated from Seed on first use
}

// evalStep is one step: its name, the step that must run before it, a run
// that fills one result field and a render that prints it. A step without
// a run only formats; the grid has no render, so it prints nothing and
// cannot be named alone.
type evalStep struct {
	name, needs string
	run         func(e *Evaluation, p *runner.Pool)
	render      func(e *Evaluation) string
}

// scaledTrials is the trials per class that Figure 3 and the mobility
// study run: a tenth of Samples, at least 8.
func (e *Evaluation) scaledTrials() int { return max(8, e.Samples/10) }

// evalSteps is the evaluation in the order it prints.
var evalSteps = []evalStep{
	{"table1", "", nil, func(e *Evaluation) string { return e.data().RenderTable1() }},
	{"table2", "", nil, func(*Evaluation) string { return renderTable2() }},
	{"table3", "", nil, func(*Evaluation) string { return renderTable3() }},
	{"grid", "", func(e *Evaluation, p *runner.Pool) { e.Grid = ReplayDatasetGrid(p, e.data(), e.Samples, e.Seed) }, nil},
	{"figure2", "grid", func(e *Evaluation, _ *runner.Pool) { e.Figure2 = e.Grid.Figure2() }, func(e *Evaluation) string { return e.Figure2.Render() }},
	{"figure3", "", func(e *Evaluation, p *runner.Pool) { e.Figure3 = ExperimentFigure3(p, e.scaledTrials(), e.Seed) }, func(e *Evaluation) string { return e.Figure3.Render() }},
	{"table4", "grid", func(e *Evaluation, _ *runner.Pool) { e.Table4 = e.Grid.Table4() }, func(e *Evaluation) string { return e.Table4.Render() }},
	{"table5", "", func(e *Evaluation, p *runner.Pool) { e.Table5 = ExperimentTable5(p, 3, e.Seed) }, func(e *Evaluation) string { return e.Table5.Render() }},
	{"figure11a", "", func(e *Evaluation, p *runner.Pool) { e.Figure11a = ExperimentFigure11a(p, e.Seed) }, func(e *Evaluation) string { return e.Figure11a.Render() }},
	{"figure11b", "", func(e *Evaluation, _ *runner.Pool) { e.Figure11b = ExperimentFigure11b(e.Seed) }, func(e *Evaluation) string { return e.Figure11b.Render() }},
	{"figure12", "", func(e *Evaluation, _ *runner.Pool) { e.Figure12 = ExperimentFigure12(50, e.Seed) }, func(e *Evaluation) string { return e.Figure12.Render() }},
	{"figure13", "", func(e *Evaluation, p *runner.Pool) { e.Figure13 = ExperimentFigure13(p, e.Seed) }, func(e *Evaluation) string { return e.Figure13.Render() }},
	{"causes", "grid", func(e *Evaluation, _ *runner.Pool) { e.Causes = e.Grid.Causes() }, func(e *Evaluation) string { return e.Causes.Render() }},
	{"coverage", "grid", func(e *Evaluation, _ *runner.Pool) { e.Coverage = e.Grid.Coverage() }, func(e *Evaluation) string { return e.Coverage.Render() }},
	{"learning", "", func(e *Evaluation, _ *runner.Pool) { e.Learning = ExperimentLearning(6, 4, 50, e.Seed) }, func(e *Evaluation) string { return e.Learning.Render() }},
	{"mobility", "", func(e *Evaluation, p *runner.Pool) { e.Mobility = ExperimentMobility(p, e.scaledTrials(), e.Seed) }, func(e *Evaluation) string { return e.Mobility.Render() }},
}

// data is the dataset the evaluation replays.
func (e *Evaluation) data() *Dataset {
	if e.dataset == nil {
		e.dataset = GenerateDataset(e.Seed)
	}
	return e.dataset
}

// Names lists what Select accepts: "all" and every step that prints.
func (e *Evaluation) Names() []string {
	names := []string{"all"}
	for _, s := range evalSteps {
		if s.render != nil {
			names = append(names, s.name)
		}
	}
	return names
}

// Select resolves a name to the steps it runs, in order: "all" is every
// step, and a named step runs after the one it needs (a fold after the
// grid).
func (e *Evaluation) Select(name string) ([]string, error) {
	var steps []string
	for _, s := range evalSteps {
		switch {
		case name == "all":
			steps = append(steps, s.name)
		case s.name == name && s.render != nil:
			return append(strings.Fields(s.needs), s.name), nil
		}
	}
	if steps == nil {
		return nil, fmt.Errorf("unknown experiment %q (known: %s)", name, strings.Join(e.Names(), " "))
	}
	return steps, nil
}

// StepRun is what RunAll reports of one step.
type StepRun struct {
	Name string
	Text string // what the step prints; "" for the grid
	// Start and End bound the step's run and render. Steps run side by
	// side at more than one worker, so their spans overlap.
	Start, End time.Time
	// GCCycles and AllocBytes are what the collector counted over the
	// span, process-wide: steps whose spans overlap share the counts.
	GCCycles, AllocBytes uint64
}

// RunAll runs the steps Select returned on p's workers, filling their
// result fields: each step is a task started once the step it needs is
// done (runner.Run), so steps run side by side on the one budget p's
// worker count sets, and in the order given at one worker. emit is called
// for every step, in the order given, once it and every step before it
// are done. The dataset the grid and Table 1 read is generated first.
func (e *Evaluation) RunAll(p *runner.Pool, steps []string, emit func(StepRun)) {
	e.data()
	runs := make([]StepRun, len(steps))
	tasks := make([]runner.Task, len(steps))
	for i, name := range steps {
		s := evalSteps[slices.IndexFunc(evalSteps, func(s evalStep) bool { return s.name == name })]
		tasks[i] = runner.Task{Needs: slices.Index(steps, s.needs), Do: func(p *runner.Pool) {
			r := &runs[i]
			r.Name = name
			cycles0, bytes0 := readGC()
			r.Start = time.Now()
			if s.run != nil {
				s.run(e, p)
			}
			if s.render != nil {
				r.Text = s.render(e)
			}
			r.End = time.Now()
			cycles, bytes := readGC()
			r.GCCycles, r.AllocBytes = cycles-cycles0, bytes-bytes0
		}}
	}
	runner.Run(p, tasks, func(i int) { emit(runs[i]) })
}

// readGC reads the collector's running totals: completed cycles and bytes
// allocated.
func readGC() (cycles, bytes uint64) {
	s := [2]rtmetrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/allocs:bytes"}}
	rtmetrics.Read(s[:])
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// renderTable prints a titled text table, each column padded to its width.
func renderTable(title string, widths []int, rows [][]string) string {
	var b strings.Builder
	b.WriteString(title + "\n")
	for _, r := range rows {
		b.WriteString(" ")
		for i, cell := range r {
			fmt.Fprintf(&b, " %-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// renderTable2 prints the paper's comparison of failure-handling
// solutions: a judgement of other systems, so a literal.
func renderTable2() string {
	return renderTable("Table 2: comparison of 5G failure diagnosis/handling solutions", []int{12, 18, 20, 22, 14}, [][]string{
		{"Solutions", "Detection&Diag", "Config recovery", "Non-config recovery", "User-action"},
		{"Modem-based", "device-side only", "not supported", "timer-based retry", "not supported"},
		{"OS-based", "device-side only", "not supported", "layer-by-layer retry", "not supported"},
		{"App-based", "device-side only", "not supported", "transport reconnect", "not supported"},
		{"Infra-based", "infra-side only", "infra-side updates", "wait for device retry", "notification"},
		{"SEED", "both sides", "both-side updates", "multi-tier reset", "notification"},
	})
}

// table3Rows names each diagnosis class as Table 3 does, with the paper's
// wording of B3 where it is not a plain reset.
var table3Rows = [...]struct{ class, b3 string }{
	core.ClassControl:       {"Control-plane causes", ""},
	core.ClassControlConfig: {"Control-plane causes w/ config", ""},
	core.ClassData:          {"Data-plane causes", ""},
	core.ClassDataConfig:    {"Data-plane causes w/ config", "B3 data-plane modification"},
	core.ClassDelivery:      {"Data delivery (app/OS report)", "B3 reset / modification"},
}

// table3Resets words each reset as Table 3 does; A2 reloads the profile
// after the update.
var table3Resets = map[core.ActionID]string{
	core.ActionA1: "A1 SIM profile reload",
	core.ActionA2: "A2+A1 config update & reload",
	core.ActionA3: "A3 config update",
	core.ActionB1: "B1 modem reset",
	core.ActionB2: "B2 reattach with update",
	core.ActionB3: "B3 data-plane reset",
}

// renderTable3 prints the applet's decision table: core.Decide for every
// diagnosis class without root and with it.
func renderTable3() string {
	rows := [][]string{{"Diagnosis Class", "SEED-U (no root)", "SEED-R (root)"}}
	for c, row := range table3Rows {
		reset := func(m core.Mode) string {
			if act := core.Decide(core.DiagClass(c), m); act != core.ActionB3 || row.b3 == "" {
				return table3Resets[act]
			}
			return row.b3
		}
		rows = append(rows, []string{row.class, reset(core.ModeU), reset(core.ModeR)})
	}
	return renderTable("Table 3: failure handling decisions with diagnosis results", []int{32, 30, 28}, rows)
}
