// Command seedload is the fleet load generator: it drives N simulated
// SEED devices through the full upload → aggregate → model-push round
// trip against a running seedfleetd, measures throughput and tail
// latency, and verifies the networked aggregate against an in-process
// sequential baseline byte-for-byte.
//
// Usage:
//
//	seedload [-addr HOST:PORT] [-devices N] [-workers N] [-conns N]
//	         [-records N] [-reports N] [-causes N] [-seed S]
//	         [-spec FILE] [-timescale F]
//	         [-master HEX32] [-json FILE] [-verify=false] [-quiet]
//
// Each device's learning records are generated deterministically from
// (-seed, device index) via the same splitmix derivation the parallel
// scenario runner uses, so the expected aggregate model is computable
// without the network: seedload folds every device's records into a
// local core.Learner (the in-process sequential baseline), pulls the
// server's merged model after the drive, and compares the two canonical
// serializations. Any lost upload or model divergence exits non-zero.
//
// -workers is the client-shard count: devices are partitioned across
// worker goroutines, each performing synchronous round trips over the
// -conns shared connections, which carry any number of requests at once:
// workers beyond -conns have their frames coalesced into shared writes
// (frames_per_write in -json; responses_per_flush and jobs_per_batch are
// the server's side of the same effect). p50/p95/p99 latencies cover the
// whole exchange including backoff waits — what a device experiences
// under backpressure.
//
// -spec FILE paces uploads by a workload spec's compiled arrival process
// (cmd/seedwl's schema): device i's upload starts at the i-th arrival
// offset, compressed by -timescale real-seconds-per-spec-second, so
// diurnal curves and signaling-storm bursts shape the cluster load.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/seed5g/seed"
	"github.com/seed5g/seed/internal/cause"
	"github.com/seed5g/seed/internal/core"
	"github.com/seed5g/seed/internal/fleet"
	"github.com/seed5g/seed/internal/fleet/cluster"
	"github.com/seed5g/seed/internal/metrics"
	"github.com/seed5g/seed/internal/report"
	"github.com/seed5g/seed/internal/sched"
	"github.com/seed5g/seed/internal/workload"
)

// fleetAPI is the surface the drive loop needs. The single-node Client
// satisfies it directly; cluster mode wraps a ClusterClient so the same
// loop drives a sharded fleet tier unchanged.
type fleetAPI interface {
	UploadRecords(imsi string, sealed []byte) error
	Report(imsi string, sealed []byte) error
	Query(imsi string, c cause.Cause) ([]byte, error)
	FetchModel() ([]byte, error)
	FetchStats() (fleet.ServerStats, error)
	Retries() uint64
	Redials() uint64
	Frames() uint64
	Writes() uint64
	Latency(op string) *metrics.Series
}

// clusterAdapter adapts ClusterClient's context-first surface to fleetAPI
// and keeps its own cross-node latency series (what a device experiences,
// redirects and failovers included).
type clusterAdapter struct {
	cc    *fleet.ClusterClient
	latMu sync.Mutex
	lat   map[string]*metrics.Series
}

func newClusterAdapter(cc *fleet.ClusterClient) *clusterAdapter {
	return &clusterAdapter{cc: cc, lat: map[string]*metrics.Series{}}
}

func (a *clusterAdapter) record(op string, start time.Time) {
	a.latMu.Lock()
	s := a.lat[op]
	if s == nil {
		s = metrics.NewSeries(op)
		a.lat[op] = s
	}
	s.Add(time.Since(start))
	a.latMu.Unlock()
}

func (a *clusterAdapter) UploadRecords(imsi string, sealed []byte) error {
	start := time.Now()
	err := a.cc.UploadRecords(context.Background(), imsi, sealed)
	if err == nil {
		a.record("upload", start)
	}
	return err
}

func (a *clusterAdapter) Report(imsi string, sealed []byte) error {
	start := time.Now()
	err := a.cc.Report(context.Background(), imsi, sealed)
	if err == nil {
		a.record("report", start)
	}
	return err
}

func (a *clusterAdapter) Query(imsi string, c cause.Cause) ([]byte, error) {
	start := time.Now()
	p, err := a.cc.Query(context.Background(), imsi, c)
	if err == nil {
		a.record("query", start)
	}
	return p, err
}

func (a *clusterAdapter) FetchModel() ([]byte, error) {
	return a.cc.FetchClusterModel(context.Background())
}

// FetchStats sums the counters across members (per-node detail is the
// chaos driver's business).
func (a *clusterAdapter) FetchStats() (fleet.ServerStats, error) {
	stats, errs := a.cc.FetchStatsAll(context.Background())
	for id, err := range errs {
		return fleet.ServerStats{}, fmt.Errorf("node %s: %w", id, err)
	}
	var sum fleet.ServerStats
	for _, st := range stats {
		sum.Conns += st.Conns
		sum.Uploads += st.Uploads
		sum.Duplicates += st.Duplicates
		sum.RecordRows += st.RecordRows
		sum.Reports += st.Reports
		sum.Queries += st.Queries
		sum.Suggestions += st.Suggestions
		sum.Backpressured += st.Backpressured
		sum.Errors += st.Errors
		sum.Dropped += st.Dropped
		sum.WrongShard += st.WrongShard
		sum.JournalRecords += st.JournalRecords
		sum.JournalSyncs += st.JournalSyncs
		sum.Compactions += st.Compactions
		sum.ReplayedRecords += st.ReplayedRecords
		sum.Jobs += st.Jobs
		sum.Batches += st.Batches
		sum.Responses += st.Responses
		sum.Flushes += st.Flushes
		if st.Epoch > sum.Epoch {
			sum.Epoch = st.Epoch
		}
	}
	return sum, nil
}

// sumClients adds up one counter over the per-node clients.
func (a *clusterAdapter) sumClients(counter func(*fleet.Client) uint64) uint64 {
	var sum uint64
	for _, n := range a.cc.Map().Nodes() {
		if cl := a.cc.NodeLatency(n.ID); cl != nil {
			sum += counter(cl)
		}
	}
	return sum
}

func (a *clusterAdapter) Retries() uint64 { return a.sumClients((*fleet.Client).Retries) }
func (a *clusterAdapter) Redials() uint64 { return a.sumClients((*fleet.Client).Redials) }
func (a *clusterAdapter) Frames() uint64  { return a.sumClients((*fleet.Client).Frames) }
func (a *clusterAdapter) Writes() uint64  { return a.sumClients((*fleet.Client).Writes) }

func (a *clusterAdapter) Latency(op string) *metrics.Series {
	a.latMu.Lock()
	defer a.latMu.Unlock()
	return a.lat[op]
}

// result is the machine-readable run record (-json).
type result struct {
	Devices       int     `json:"devices"`
	Workers       int     `json:"workers"`
	Conns         int     `json:"conns"`
	Records       int     `json:"records_per_device"`
	Reports       int     `json:"reports_per_device"`
	Testbed       int     `json:"testbed_devices"`
	PacedBySpec   string  `json:"paced_by_spec,omitempty"`
	Seed          int64   `json:"seed"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	WallMS        float64 `json:"wall_ms"`
	UploadsPerSec float64 `json:"uploads_per_sec"`
	OpsPerSec     float64 `json:"ops_per_sec"`
	Lost          int64   `json:"lost"`
	Retries       uint64  `json:"client_retries"`
	Redials       uint64  `json:"client_redials"`
	ModelMatch    *bool   `json:"model_match,omitempty"`
	ModelBytes    int     `json:"model_bytes"`
	Suggestions   int64   `json:"suggestions_received"`

	UploadP50MS float64 `json:"upload_p50_ms"`
	UploadP95MS float64 `json:"upload_p95_ms"`
	UploadP99MS float64 `json:"upload_p99_ms"`
	QueryP50MS  float64 `json:"query_p50_ms"`
	QueryP95MS  float64 `json:"query_p95_ms"`
	QueryP99MS  float64 `json:"query_p99_ms"`

	// Coalescing on the pipelined wire: request frames per client write,
	// responses per server write, shard jobs per worker batch.
	FramesPerWrite    float64 `json:"frames_per_write"`
	ResponsesPerFlush float64 `json:"responses_per_flush"`
	JobsPerBatch      float64 `json:"jobs_per_batch"`

	Server fleet.ServerStats `json:"server"`
}

// deviceLoad is one device's deterministic workload.
type deviceLoad struct {
	imsi    string
	records map[cause.Cause]map[core.ActionID]int
	reports []report.FailureReport
	query   cause.Cause
}

// genDevice derives device i's workload from the root seed. Causes are
// operator-customized codes (the §5.3 unknown-failure space) spread over
// both planes; actions follow the trial order.
func genDevice(rootSeed int64, i, records, reports, causes int) deviceLoad {
	rng := rand.New(rand.NewSource(sched.DeriveSeed(rootSeed, uint64(i))))
	d := deviceLoad{
		imsi:    fmt.Sprintf("310170%09d", i+1),
		records: make(map[cause.Cause]map[core.ActionID]int),
	}
	for r := 0; r < records; r++ {
		c := cause.Cause{Plane: cause.ControlPlane, Code: cause.Code(150 + rng.Intn(causes))}
		if rng.Intn(2) == 1 {
			c.Plane = cause.DataPlane
		}
		a := core.LearningOrder[rng.Intn(len(core.LearningOrder))]
		if d.records[c] == nil {
			d.records[c] = make(map[core.ActionID]int)
		}
		d.records[c][a] += 1 + rng.Intn(3)
		d.query = c
	}
	for r := 0; r < reports; r++ {
		switch rng.Intn(3) {
		case 0:
			d.reports = append(d.reports, report.FailureReport{
				Type: report.FailDNS, Direction: report.DirBoth, Domain: "fleet.example.com",
			})
		case 1:
			d.reports = append(d.reports, report.FailureReport{
				Type: report.FailTCP, Direction: report.DirUplink,
				Addr: [4]byte{10, 0, 0, byte(rng.Intn(256))}, Port: 443,
			})
		default:
			d.reports = append(d.reports, report.FailureReport{
				Type: report.FailUDP, Direction: report.DirDownlink,
				Addr: [4]byte{10, 0, 1, byte(rng.Intn(256))}, Port: 53,
			})
		}
	}
	if d.query == (cause.Cause{}) {
		d.query = cause.MM(150)
	}
	return d
}

// simProto boots one SEED-R device to connected steady state; each
// testbed-derived fleet device clones it instead of re-running the boot.
var simProto = seed.NewProto(func(tb *seed.Testbed) *seed.Device {
	d := tb.NewDevice(seed.ModeSEEDR)
	d.Start()
	tb.RunUntil(d.Connected, time.Minute)
	return d
})

// testbedDevice derives device i's learning records by driving a cloned
// SEED testbed through an operator-customized failure: the rows the SIM
// applet actually learned and uploaded become the device's fleet payload
// (the synthetic genDevice rows are replaced; reports stay synthetic).
// The same rows feed the in-process baseline, so -verify still holds
// byte-for-byte. Returns false when the run produced no records.
func testbedDevice(ld *deviceLoad, rootSeed int64, i, causes int) bool {
	tb, d, put := simProto.Cell(sched.DeriveSeedN(rootSeed, uint64(i), 2))
	defer put()
	if !d.Connected() {
		return false
	}
	var blob []byte
	d.Core().CApp.SetRecordSink(func(b []byte) {
		blob = append(blob[:0], b...)
	})

	code := uint8(150 + i%causes)
	c := cause.MM(cause.Code(code))
	opts := seed.InjectOpts{Count: -1, HealAfter: 30 * time.Second}
	if i%2 == 0 {
		tb.InjectControlFailure(d, code, opts)
		tb.SimulateMobility(d)
	} else {
		c = cause.SM(cause.Code(code))
		tb.InjectDataFailure(d, code, opts)
		tb.ReleaseInternetSessions(d)
		// The release is asynchronous: wait for the failure to manifest
		// before watching for recovery.
		tb.RunUntil(func() bool { return !d.Connected() }, 30*time.Second)
	}
	// Let the applet run its trial sequence and the heal land; then pull
	// the learned records through the OTA upload leg.
	tb.RunUntil(d.Connected, 10*time.Minute)
	tb.Advance(15 * time.Second)
	d.Core().CApp.UploadRecords()
	tb.Advance(time.Second)

	rows, err := core.UnmarshalRecords(blob)
	if err != nil || len(rows) == 0 {
		return false
	}
	ld.records = rows
	ld.query = c
	return true
}

func ms(s *metrics.Series, p float64) float64 {
	if s == nil {
		return 0
	}
	return float64(s.Percentile(p)) / float64(time.Millisecond)
}

func latSummary(api fleetAPI, op string) string {
	s := api.Latency(op)
	if s == nil || s.Len() == 0 {
		return op + ": no samples"
	}
	return fmt.Sprintf("%s: n=%d p50=%.2fms p95=%.2fms p99=%.2fms",
		op, s.Len(), ms(s, 50), ms(s, 95), ms(s, 99))
}

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:7316", "seedfleetd address (single-node mode)")
		clusterSpec = flag.String("cluster", "", "drive a cluster instead: members as id=host:port,...")
		epoch       = flag.Uint64("epoch", 1, "bootstrap shard-map epoch (with -cluster)")
		devices     = flag.Int("devices", 1000, "simulated device count")
		workers     = flag.Int("workers", 4, "client shards (worker goroutines)")
		conns       = flag.Int("conns", 0, "connection pool size (default: workers)")
		records     = flag.Int("records", 4, "learning-record rows per device")
		reports     = flag.Int("reports", 1, "failure reports per device")
		causes      = flag.Int("causes", 12, "distinct customized causes per plane")
		testbed     = flag.Int("testbed", 32, "derive the first N devices' records from real cloned-testbed SEED runs (0: all synthetic)")
		wlSpec      = flag.String("spec", "", "pace uploads by this workload spec's arrival process (see cmd/seedwl) instead of max rate")
		timescale   = flag.Float64("timescale", 0.001, "real seconds per spec second with -spec pacing")
		seedVal     = flag.Int64("seed", 1, "workload seed")
		master      = flag.String("master", "", "fleet master key, 32 hex digits (default: built-in dev key)")
		jsonOut     = flag.String("json", "", "write machine-readable results to FILE (\"-\" for stdout)")
		verify      = flag.Bool("verify", true, "compare the server model against the in-process baseline")
		quiet       = flag.Bool("quiet", false, "suppress progress output")

		chaosMode  = flag.Bool("chaos", false, "run the kill-and-rebalance chaos campaign (spawns its own cluster; see -fleetd)")
		fleetdPath = flag.String("fleetd", "", "seedfleetd binary for -chaos (required)")
		chaosNodes = flag.Int("nodes", 3, "cluster size for -chaos")
		jrnlRoot   = flag.String("journal-root", "", "journal root directory for -chaos (default: temp dir)")
		killDown   = flag.Duration("kill-down", 250*time.Millisecond, "how long the SIGKILL'd node stays down before restart")
		lossy      = flag.Bool("lossy", false, "route cluster traffic through lossy TCP proxies")
		proxyDelay = flag.Duration("proxy-delay", 2*time.Millisecond, "lossy proxy: base one-way delay")
		proxyJit   = flag.Duration("proxy-jitter", 3*time.Millisecond, "lossy proxy: added uniform jitter")
		proxyKill  = flag.Float64("proxy-killprob", 0.02, "lossy proxy: per-connection kill probability per forwarded chunk")
	)
	flag.Parse()

	masterKey := fleet.DefaultMasterKey
	if *master != "" {
		k, err := fleet.ParseMasterKey(*master)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		masterKey = k
	}
	if *conns <= 0 {
		*conns = *workers
	}

	if *chaosMode {
		os.Exit(runChaos(chaosOpts{
			fleetd:     *fleetdPath,
			nodes:      *chaosNodes,
			journals:   *jrnlRoot,
			devices:    *devices,
			workers:    *workers,
			records:    *records,
			causes:     *causes,
			seed:       *seedVal,
			masterKey:  masterKey,
			killDown:   *killDown,
			lossy:      *lossy,
			proxyDelay: *proxyDelay,
			proxyJit:   *proxyJit,
			proxyKill:  *proxyKill,
			jsonOut:    *jsonOut,
			quiet:      *quiet,
		}))
	}

	logf := func(format string, args ...any) {
		if !*quiet {
			fmt.Printf(format+"\n", args...)
		}
	}

	// Generate the fleet's deterministic workload and the in-process
	// sequential baseline model. The first -testbed devices earn their
	// records from real cloned-testbed runs; the rest are synthetic.
	loads := make([]deviceLoad, *devices)
	baseline := core.NewLearner(0.1, rand.New(rand.NewSource(*seedVal)))
	fromTestbed := 0
	for i := range loads {
		loads[i] = genDevice(*seedVal, i, *records, *reports, *causes)
		if i < *testbed && testbedDevice(&loads[i], *seedVal, i, *causes) {
			fromTestbed++
		}
		baseline.Crowdsource(loads[i].records)
	}
	expected := fleet.MarshalModel(baseline.Export())
	logf("seedload: %d devices (%d testbed-derived), %d workers, %d conns, %d record rows/device (model %d bytes)",
		*devices, fromTestbed, *workers, *conns, *records, len(expected))

	// With -spec, device i's upload waits until its compiled arrival
	// offset (compressed by -timescale) — cluster load then carries the
	// spec's diurnal curves and signaling-storm bursts instead of arriving
	// as one max-rate wall.
	var offsets []time.Duration
	pacedBy := ""
	if *wlSpec != "" {
		blob, err := os.ReadFile(*wlSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "seedload:", err)
			os.Exit(2)
		}
		sp, err := workload.ParseSpec(blob)
		if err == nil {
			err = sp.Validate()
		}
		if err == nil {
			offsets, err = workload.UploadSchedule(sp, *seedVal, *devices)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "seedload: %s: %v\n", *wlSpec, err)
			os.Exit(2)
		}
		for i := range offsets {
			offsets[i] = time.Duration(float64(offsets[i]) * *timescale)
		}
		pacedBy = sp.Name
		logf("seedload: pacing by spec %q ×%g: uploads span %v", sp.Name, *timescale, offsets[len(offsets)-1])
	}

	var api fleetAPI
	if *clusterSpec != "" {
		nodes, err := cluster.ParseNodeList(*clusterSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "seedload:", err)
			os.Exit(2)
		}
		cc, err := fleet.NewClusterClient(fleet.ClusterClientConfig{
			Nodes:  nodes,
			Epoch:  *epoch,
			Client: fleet.ClientConfig{Conns: *conns, Seed: *seedVal},
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "seedload:", err)
			os.Exit(2)
		}
		defer cc.Close()
		api = newClusterAdapter(cc)
	} else {
		cl := fleet.NewClient(fleet.ClientConfig{Addr: *addr, Conns: *conns, Seed: *seedVal})
		defer cl.Close()
		api = cl
	}

	var lost, suggestions atomic.Int64
	var wg sync.WaitGroup
	// Contiguous chunks normally; with -spec pacing a stride instead, so
	// simultaneous arrivals (offsets are sorted) spread across workers.
	shards := make([][]int, *workers)
	for i := 0; i < *devices; i++ {
		w := i * *workers / *devices
		if offsets != nil {
			w = i % *workers
		}
		shards[w] = append(shards[w], i)
	}
	start := time.Now()
	for w := 0; w < *workers; w++ {
		wg.Add(1)
		go func(idx []int) {
			defer wg.Done()
			for _, i := range idx {
				ld := loads[i]
				if offsets != nil {
					if d := time.Until(start.Add(offsets[i])); d > 0 {
						time.Sleep(d)
					}
				}
				dev := fleet.NewSimDevice(masterKey, ld.imsi)
				blob := core.MarshalRecords(ld.records)
				sealed, err := dev.SealRecords(blob)
				if err == nil {
					err = api.UploadRecords(ld.imsi, sealed)
				}
				if err != nil {
					lost.Add(1)
					fmt.Fprintf(os.Stderr, "seedload: %s: %v\n", ld.imsi, err)
					continue
				}
				for _, rep := range ld.reports {
					sr, err := dev.SealReport(rep.Marshal())
					if err == nil {
						err = api.Report(ld.imsi, sr)
					}
					if err != nil {
						lost.Add(1)
						fmt.Fprintf(os.Stderr, "seedload: %s report: %v\n", ld.imsi, err)
					}
				}
				if payload, err := api.Query(ld.imsi, ld.query); err == nil {
					if _, ok, _ := dev.OpenSuggest(payload); ok {
						suggestions.Add(1)
					}
				}
			}
		}(shards[w])
	}
	wg.Wait()
	wall := time.Since(start)

	res := result{
		Devices: *devices, Workers: *workers, Conns: *conns,
		Records: *records, Reports: *reports, Testbed: fromTestbed,
		PacedBySpec: pacedBy, Seed: *seedVal,
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		WallMS:        float64(wall) / float64(time.Millisecond),
		UploadsPerSec: float64(*devices) / wall.Seconds(),
		Lost:          lost.Load(),
		Retries:       api.Retries(),
		Redials:       api.Redials(),
		Suggestions:   suggestions.Load(),
		UploadP50MS:   ms(api.Latency("upload"), 50),
		UploadP95MS:   ms(api.Latency("upload"), 95),
		UploadP99MS:   ms(api.Latency("upload"), 99),
		QueryP50MS:    ms(api.Latency("query"), 50),
		QueryP95MS:    ms(api.Latency("query"), 95),
		QueryP99MS:    ms(api.Latency("query"), 99),

		FramesPerWrite: fleet.Ratio(api.Frames(), api.Writes()),
	}
	totalOps := *devices * (2 + *reports) // upload + reports + query
	res.OpsPerSec = float64(totalOps) / wall.Seconds()

	if st, err := api.FetchStats(); err == nil {
		res.Server = st
		res.ResponsesPerFlush = fleet.Ratio(st.Responses, st.Flushes)
		res.JobsPerBatch = fleet.Ratio(st.Jobs, st.Batches)
	} else {
		fmt.Fprintf(os.Stderr, "seedload: stats pull: %v\n", err)
	}

	exit := 0
	if *verify {
		got, err := api.FetchModel()
		if err != nil {
			fmt.Fprintf(os.Stderr, "seedload: model pull: %v\n", err)
			exit = 1
		} else {
			res.ModelBytes = len(got)
			match := string(got) == string(expected)
			res.ModelMatch = &match
			if !match {
				fmt.Fprintf(os.Stderr, "seedload: MODEL MISMATCH: server %d bytes, baseline %d bytes\n",
					len(got), len(expected))
				exit = 1
			}
		}
	}
	if res.Lost > 0 {
		fmt.Fprintf(os.Stderr, "seedload: %d uploads LOST\n", res.Lost)
		exit = 1
	}

	logf("seedload: %d uploads in %.1fms — %.0f uploads/s, %.0f ops/s (lost=%d retries=%d redials=%d)",
		*devices, res.WallMS, res.UploadsPerSec, res.OpsPerSec, res.Lost, res.Retries, res.Redials)
	logf("seedload: %.2f frames/write, %.2f responses/flush, %.2f jobs/batch",
		res.FramesPerWrite, res.ResponsesPerFlush, res.JobsPerBatch)
	logf("seedload: %s", latSummary(api, "upload"))
	logf("seedload: %s", latSummary(api, "query"))
	if res.ModelMatch != nil {
		logf("seedload: model match: %v (%d bytes, %d suggestions received)", *res.ModelMatch, res.ModelBytes, res.Suggestions)
	}

	if *jsonOut != "" {
		buf, err := json.MarshalIndent(res, "", "  ")
		if err == nil {
			buf = append(buf, '\n')
			if *jsonOut == "-" {
				_, err = os.Stdout.Write(buf)
			} else {
				err = os.WriteFile(*jsonOut, buf, 0o644)
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "seedload: writing %s: %v\n", *jsonOut, err)
			exit = 1
		}
	}
	os.Exit(exit)
}
