//go:build race

package fleet

// raceEnabled reports whether this binary was built with the race
// detector, whose instrumentation allocates and distorts timings; the
// allocation and cost guards skip themselves under it (their binding
// run is the uninstrumented bench-smoke CI job).
const raceEnabled = true
