package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// metricDef mirrors one entry of BENCHMARK.json. The tables below are
// what the harness emits; a test holds them equal to the file.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

const (
	wSuite    = "suite"
	wCorpus   = "corpus"
	wDelivery = "delivery"
	wFleetMem = "fleet_mem"
)

// workloadNames lists the workloads in the order "all" runs them.
var workloadNames = []string{wSuite, wCorpus, wDelivery, wFleetMem}

// endToEnd are the metrics of the untraced run, measured on every
// workload. An operation is one seedbench run (suite), one simulated
// cell (corpus, delivery), or one device's upload+report+query round
// (fleet_mem); w1 is one worker of the program under test (runner worker,
// -parallel 1, -shards 1), wN is N = min(nproc, 4) of them.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "ops_per_s_w1", Unit: "1/s", Better: "higher"},
	{Name: "ops_per_s_wN", Unit: "1/s", Better: "higher"},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "rss_mb", Unit: "MB", Better: "lower"},
}

// perLayer are the metrics of the traced run. A metric that does not
// exist on a workload (fleet counters on a simulator workload) reads 0
// there.
var perLayer = []metricDef{
	// Event kernel.
	{Name: "sched.timer_ns", Unit: "ns", Better: "lower"},
	{Name: "sched.timer_allocs", Unit: "count", Better: "lower"},
	{Name: "sched.cancel_ns", Unit: "ns", Better: "lower"},
	{Name: "sched.new_us", Unit: "us", Better: "lower"},
	{Name: "sched.derive_ns", Unit: "ns", Better: "lower"},
	// Emulated links.
	{Name: "netemu.frame_ns", Unit: "ns", Better: "lower"},
	{Name: "netemu.frame_allocs", Unit: "count", Better: "lower"},
	{Name: "netemu.frames_per_cell", Unit: "count", Better: "lower"},
	{Name: "netemu.dropped_per_cell", Unit: "count", Better: "lower"},
	// NAS codec and security.
	{Name: "nas.marshal_ns", Unit: "ns", Better: "lower"},
	{Name: "nas.unmarshal_ns", Unit: "ns", Better: "lower"},
	{Name: "nas.unmarshal_allocs", Unit: "count", Better: "lower"},
	{Name: "nas.protect_ns", Unit: "ns", Better: "lower"},
	{Name: "nas.unprotect_ns", Unit: "ns", Better: "lower"},
	{Name: "nas.protected_per_cell", Unit: "count", Better: "lower"},
	// Crypto.
	{Name: "crypto5g.milenage_ns", Unit: "ns", Better: "lower"},
	{Name: "crypto5g.eia2_ns", Unit: "ns", Better: "lower"},
	{Name: "crypto5g.eea2_ns", Unit: "ns", Better: "lower"},
	{Name: "crypto5g.seal_ns", Unit: "ns", Better: "lower"},
	{Name: "crypto5g.open_ns", Unit: "ns", Better: "lower"},
	{Name: "crypto5g.newenvelope_ns", Unit: "ns", Better: "lower"},
	// SIM card.
	{Name: "sim.apdu_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.auth_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.apdus_per_cell", Unit: "count", Better: "lower"},
	{Name: "sim.auth_per_cell", Unit: "count", Better: "lower"},
	// Testbed boot, prototype clone, snapshot.
	{Name: "testbed.boot_us", Unit: "us", Better: "lower"},
	{Name: "testbed.boot_allocs", Unit: "count", Better: "lower"},
	{Name: "testbed.cell_us_p50", Unit: "us", Better: "lower"},
	{Name: "testbed.cell_us_p99", Unit: "us", Better: "lower"},
	{Name: "testbed.probe_cell_us", Unit: "us", Better: "lower"},
	{Name: "proto.restore_us", Unit: "us", Better: "lower"},
	{Name: "proto.restore_allocs", Unit: "count", Better: "lower"},
	{Name: "proto.fresh_us", Unit: "us", Better: "lower"},
	{Name: "snap.take_us", Unit: "us", Better: "lower"},
	// Work counts per probe cell, from the layers' Stats().
	{Name: "modem.nas_sent_per_cell", Unit: "count", Better: "lower"},
	{Name: "modem.nas_received_per_cell", Unit: "count", Better: "lower"},
	{Name: "core5g.amf_msgs_per_cell", Unit: "count", Better: "lower"},
	{Name: "core5g.upf_packets_per_cell", Unit: "count", Better: "lower"},
	{Name: "core.decisions_per_cell", Unit: "count", Better: "lower"},
	{Name: "core.actions_per_cell", Unit: "count", Better: "lower"},
	{Name: "dataplane.requests_per_cell", Unit: "count", Better: "lower"},
	{Name: "android.stalls_per_cell", Unit: "count", Better: "lower"},
	// Runner.
	{Name: "runner.dispatch_ns", Unit: "ns", Better: "lower"},
	{Name: "runner.scaling", Unit: "ratio", Better: "higher"},
	// Go runtime, around the measured passes.
	{Name: "runtime.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "runtime.alloc_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "runtime.gc_cycles_per_pass_w1", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_cycles_per_pass_wN", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_cpu_share_w1", Unit: "ratio", Better: "lower"},
	{Name: "runtime.gc_cpu_share_wN", Unit: "ratio", Better: "lower"},
	// Workload compiler and decision tracing.
	{Name: "workload.compile_ms", Unit: "ms", Better: "lower"},
	{Name: "workload.mix_mape", Unit: "ratio", Better: "lower"},
	{Name: "policy.traced_ratio", Unit: "ratio", Better: "lower"},
	{Name: "policy.events_per_cell", Unit: "count", Better: "lower"},
	// Fleet tier: unit costs, request latencies, journal, failure counters.
	{Name: "fleet.frame_encode_ns", Unit: "ns", Better: "lower"},
	{Name: "fleet.frame_decode_ns", Unit: "ns", Better: "lower"},
	{Name: "fleet.payload_parse_ns", Unit: "ns", Better: "lower"},
	{Name: "fleet.records_unmarshal_ns", Unit: "ns", Better: "lower"},
	{Name: "fleet.fold_ns", Unit: "ns", Better: "lower"},
	{Name: "fleet.model_marshal_us", Unit: "us", Better: "lower"},
	{Name: "fleet.seal_us", Unit: "us", Better: "lower"},
	{Name: "fleet.upload_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "fleet.upload_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "fleet.query_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "fleet.query_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "fleet.report_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "fleet.journal_ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "fleet.records_per_fsync", Unit: "ratio", Better: "higher"},
	{Name: "fleet.journal_bytes_per_upload", Unit: "B", Better: "lower"},
	{Name: "fleet.recovery_ms", Unit: "ms", Better: "lower"},
	{Name: "fleet.retries", Unit: "count", Better: "lower"},
	{Name: "fleet.redials", Unit: "count", Better: "lower"},
	{Name: "fleet.backpressured", Unit: "count", Better: "lower"},
	{Name: "fleet.duplicates", Unit: "count", Better: "lower"},
	{Name: "fleet.errors", Unit: "count", Better: "lower"},
	{Name: "fleet.dropped", Unit: "count", Better: "lower"},
	// Environment.
	{Name: "disk.fsync_us", Unit: "us", Better: "lower"},
	{Name: "env.spin_drift", Unit: "ratio", Better: "lower"},
	{Name: "env.calib_factor", Unit: "ratio", Better: "lower"},
	{Name: "env.steal_share", Unit: "ratio", Better: "lower"},
	{Name: "build_s", Unit: "s", Better: "lower"},
	{Name: "trace_overhead_ratio", Unit: "ratio", Better: "lower"},
	// Estimates: unit cost × count per probe cell ÷ the probe cells' wall.
	{Name: "est_share.nas", Unit: "ratio", Better: "lower"},
	{Name: "est_share.sim", Unit: "ratio", Better: "lower"},
	{Name: "est_share.netemu", Unit: "ratio", Better: "lower"},
	{Name: "est_share.crypto5g", Unit: "ratio", Better: "lower"},
	{Name: "est_share.boot", Unit: "ratio", Better: "lower"},
	{Name: "est_share.gc", Unit: "ratio", Better: "lower"},
}

func defsByName(defs []metricDef) map[string]metricDef {
	m := make(map[string]metricDef, len(defs))
	for _, d := range defs {
		m[d.Name] = d
	}
	return m
}

// result is one run of one workload: the record appended to -out and the
// source of the closing JSON line.
type result struct {
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Seconds  float64     `json:"seconds"`
	Traced   bool        `json:"traced"`
	Env      environment `json:"env"`
	// Calibration is the factor the run's times were divided by: how much
	// slower than nominal the box ran (see calibrate).
	Calibration float64            `json:"calibration"`
	Correct     bool               `json:"correct"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Digests     map[string]string  `json:"digests"`
	Metrics     map[string]summary `json:"metrics"`
	// Samples are the raw per-pass readings behind the medians.
	Samples map[string][]float64 `json:"samples,omitempty"`
	Notes   []string             `json:"notes,omitempty"`

	defs map[string]metricDef
}

func newResult(workload string, seedVal int64, seconds float64, traced bool, env environment) *result {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	return &result{
		Workload: workload, Seed: seedVal, Seconds: seconds, Traced: traced, Env: env,
		Correct: true, Digests: map[string]string{}, Metrics: map[string]summary{}, Samples: map[string][]float64{},
		defs: defsByName(defs),
	}
}

// set records a metric of this run's kind; a metric of the other kind
// (an end-to-end metric during a traced run) is dropped, so workload
// code reports what it measured without asking which run it is in.
func (r *result) set(name string, s summary) {
	d, ok := r.defs[name]
	if !ok {
		return
	}
	s.Unit = d.Unit
	r.Metrics[name] = s
}

func (r *result) setValue(name string, v float64) { r.set(name, scalar(v, "")) }

// fail marks the run incorrect and says why.
func (r *result) fail(format string, args ...any) {
	r.Correct = false
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// finish fills the metrics that do not exist on this workload with 0, so
// every run carries every name.
func (r *result) finish() {
	var absent []string
	for name, d := range r.defs {
		if _, ok := r.Metrics[name]; !ok {
			r.Metrics[name] = scalar(0, d.Unit)
			absent = append(absent, name)
		}
	}
	if len(absent) > 0 {
		sort.Strings(absent)
		r.Notes = append(r.Notes, "not applicable on this workload, reported as 0: "+strings.Join(absent, " "))
	}
	if r.Failed > 0 {
		r.Correct = false
	}
}

// print writes the human-readable block and, last, the one-line JSON
// object a pipeline reads.
func (r *result) print(w io.Writer) {
	kind := "end-to-end"
	order := endToEnd
	if r.Traced {
		kind, order = "per-layer (traced run)", perLayer
	}
	fmt.Fprintf(w, "== %s  seed=%d  N=%d  calibration=%.3f  %s\n", r.Workload, r.Seed, r.Env.N, r.Calibration, kind)
	for _, d := range order {
		s := r.Metrics[d.Name]
		if s.N > 1 {
			fmt.Fprintf(w, "  %-30s %14.6g %-6s  q1 %.6g  q3 %.6g  n=%d", d.Name, s.Value, s.Unit, s.Q1, s.Q3, s.N)
			if s.Raw != 0 {
				fmt.Fprintf(w, "  (uncalibrated %.6g)", s.Raw)
			}
			fmt.Fprintln(w)
		} else {
			fmt.Fprintf(w, "  %-30s %14.6g %-6s\n", d.Name, s.Value, s.Unit)
		}
	}
	share := 0.0
	if r.Attempted > 0 {
		share = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Fprintf(w, "  attempted %d  failed %d  failed_share %g  correct %v\n", r.Attempted, r.Failed, share, r.Correct)
	keys := make([]string, 0, len(r.Digests))
	for k := range r.Digests {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  digest %-12s %s\n", k, r.Digests[k])
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}

	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]mv{}}
	for name, s := range r.Metrics {
		line.Metrics[name] = mv{s.Value, s.Unit}
	}
	blob, err := json.Marshal(line)
	if err != nil {
		panic("benchmark: result line: " + err.Error()) // a NaN or Inf reading: a bug in the harness
	}
	fmt.Fprintf(w, "%s\n", blob)
}
