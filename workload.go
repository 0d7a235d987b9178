package seed

import (
	"github.com/seed5g/seed/internal/trace"
	"github.com/seed5g/seed/internal/workload"
)

// This file executes compiled workload cells (internal/workload) on real
// testbeds. The split keeps internal/workload pure — spec parsing,
// compilation, and calibration math with no testbed dependency — while
// the root package supplies the one thing it cannot: end-to-end replay.
// Every cell runs on its own testbed from its own compiled seed, so a
// corpus's outcomes are bit-identical however its cells fan across workers.

// RunWorkloadCell executes one compiled cell under mode with an optional
// instrument (nil is the plain TraceOff path): the compiled-cell vocabulary
// of runCell. seedwl, the policy subsystem's counterfactual replayer and
// search loop, and the benchmark all enter here, so a corpus, a policy's
// score and the workload bench measure cells through one code path.
func RunWorkloadCell(sp *workload.Spec, c workload.Cell, mode Mode, inst *Instrument) workload.Outcome {
	return runCell(compiledCellRun(sp, c, inst), mode, c.Seed)
}

// compiledCellRun translates a compiled cell into runCell's description.
func compiledCellRun(sp *workload.Spec, c workload.Cell, inst *Instrument) cellRun {
	run := cellRun{
		controlPlane: c.Plane == "control", code: c.Code, scenario: trace.ScenarioOf(c.Scenario), heal: c.Heal,
		jitter: c.RFJitter, loss: c.LossWindows, partitions: c.PartitionWindows,
		inst: inst,
	}
	if workload.MobilityScenario(c.Scenario) {
		run.graph, run.hops, run.lossyHop = &sp.Cells, c.Hops, c.LossyHop
	}
	return run
}
