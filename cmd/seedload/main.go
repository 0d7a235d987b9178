// Command seedload is the fleet load generator: it drives N simulated
// SEED devices through the full upload → aggregate → model-push round
// trip against a running seedfleetd, measures throughput and tail
// latency, and verifies the networked aggregate against an in-process
// sequential baseline byte-for-byte.
//
// Usage:
//
//	seedload [-addr HOST:PORT] [-devices N] [-workers N] [-conns N] [-testbed N]
//	         [-seed S] [-spec FILE] [-master HEX32] [-json FILE]
//
// Every device uploads four record rows and files one failure report,
// its customized causes are drawn from 12 per plane, and the model
// comparison always runs. -addr is the one seedfleetd it drives, through a
// fleet.Client built from ClientConfig{Addr}, the client the benchmark
// measures.
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
// -conns shared connections, which carry any number of requests
// at once. A worker joins a connection whose next write is still forming,
// so workers that arrive together (one burst of responses woke them) share
// one write; only when no write is forming does a worker take the next
// connection round-robin (frames_per_write in -json; responses_per_flush
// is the server's side of the same effect, and records_per_fsync, against
// a server with -journal, how many journal records one group commit made
// durable). p50/p95/p99
// latencies cover the whole exchange including retries and backoff waits
// — what a device experiences under backpressure. Each worker times its
// own requests, and the series are merged after the drive.
//
// -spec FILE paces uploads by a workload spec's compiled arrival process
// (cmd/seedwl's schema): device i's upload starts at the i-th arrival
// offset, compressed to a millisecond per spec second, so diurnal curves
// and signaling-storm bursts shape the server's load.
//
// Crashes under load are not a seedload mode: that campaign runs
// in-process on the real server, as go test -run TestCampaign
// ./internal/fleet.
package main

import (
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
	"github.com/seed5g/seed/internal/metrics"
	"github.com/seed5g/seed/internal/report"
	"github.com/seed5g/seed/internal/sched"
	"github.com/seed5g/seed/internal/workload"
)

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
	// responses per server write, journal records per fsync (0 in memory).
	FramesPerWrite    float64 `json:"frames_per_write"`
	ResponsesPerFlush float64 `json:"responses_per_flush"`
	RecordsPerFsync   float64 `json:"records_per_fsync"`

	Server fleet.ServerStats `json:"server"`
}

// deviceLoad is one device's deterministic workload.
type deviceLoad struct {
	imsi    string
	records core.Records
	reports []report.FailureReport
	query   cause.Cause
}

// What every device sends, and how fast a -spec arrival process is
// replayed.
const (
	recordsPerDevice = 4     // learning-record rows per synthetic device
	reportsPerDevice = 1     // failure reports per device
	causesPerPlane   = 12    // distinct customized causes per plane
	specTimescale    = 0.001 // real seconds per spec second with -spec pacing
)

// genDevice derives device i's workload from the root seed. Causes are
// operator-customized codes (the §5.3 unknown-failure space) spread over
// both planes; actions follow the trial order.
func genDevice(rootSeed int64, i int) deviceLoad {
	rng := rand.New(rand.NewSource(sched.DeriveSeed(rootSeed, uint64(i))))
	d := deviceLoad{
		imsi:    fmt.Sprintf("310170%09d", i+1),
		records: core.Records{},
	}
	for r := 0; r < recordsPerDevice; r++ {
		c := cause.Cause{Plane: cause.ControlPlane, Code: cause.Code(150 + rng.Intn(causesPerPlane))}
		if rng.Intn(2) == 1 {
			c.Plane = cause.DataPlane
		}
		a := core.LearningOrder[rng.Intn(len(core.LearningOrder))]
		d.records.Add(c, a, 1+rng.Intn(3))
		d.query = c
	}
	for r := 0; r < reportsPerDevice; r++ {
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
// The same rows feed the in-process baseline, so the model comparison
// still holds byte-for-byte. Returns false when the run produced no records.
func testbedDevice(ld *deviceLoad, rootSeed int64, i int) bool {
	tb, d, put := simProto.Cell(sched.DeriveSeedN(rootSeed, uint64(i), 2))
	defer put()
	if !d.Connected() {
		return false
	}
	var blob []byte
	d.Core().CApp.SetRecordSink(func(b []byte) {
		blob = append(blob[:0], b...)
	})

	code := uint8(150 + i%causesPerPlane)
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

// genFleet generates the fleet's deterministic workload and the canonical
// model of the in-process sequential baseline fold. The first testbed
// devices earn their records from real cloned-testbed runs (fromTestbed
// counts those that produced any); the rest are synthetic.
func genFleet(rootSeed int64, devices, testbed int) (loads []deviceLoad, expected []byte, fromTestbed int) {
	loads = make([]deviceLoad, devices)
	baseline := core.Records{}
	for i := range loads {
		loads[i] = genDevice(rootSeed, i)
		if i < testbed && testbedDevice(&loads[i], rootSeed, i) {
			fromTestbed++
		}
		baseline.Merge(loads[i].records)
	}
	return loads, fleet.MarshalModel(baseline), fromTestbed
}

// logf prints one line of progress output.
func logf(format string, args ...any) { fmt.Printf(format+"\n", args...) }

func ms(s *metrics.Series, p float64) float64 {
	return float64(s.Percentile(p)) / float64(time.Millisecond)
}

func latSummary(s *metrics.Series, op string) string {
	if s.Len() == 0 {
		return op + ": no samples"
	}
	return fmt.Sprintf("%s: n=%d p50=%.2fms p95=%.2fms p99=%.2fms",
		op, s.Len(), ms(s, 50), ms(s, 95), ms(s, 99))
}

// driver pushes device rounds — upload, reports, then the model-push
// query — through a fleet from workers goroutines, each doing synchronous
// round trips.
type driver struct {
	cl        *fleet.Client
	masterKey [16]byte
	workers   int
	// offsets, when set, holds device i's upload back until that long after
	// the start (-spec pacing).
	offsets []time.Duration

	// lost counts uploads and reports that failed for good.
	lost, suggestions atomic.Int64
	// upload and query time each completed request whole, retries and
	// backoff waits included: what a device experiences.
	upload, query *metrics.Series
}

// run drives every load once and returns the wall time it took. Each
// worker times its own requests; their series are merged after the drive,
// so no lock is shared per request.
func (d *driver) run(loads []deviceLoad) time.Duration {
	// Contiguous chunks normally; with pacing a stride instead, so
	// simultaneous arrivals (offsets are sorted) spread across workers.
	shards := make([][]int, d.workers)
	for i := range loads {
		w := i * d.workers / len(loads)
		if d.offsets != nil {
			w = i % d.workers
		}
		shards[w] = append(shards[w], i)
	}
	type timings struct{ upload, query []time.Duration }
	lats := make([]timings, d.workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w, idx := range shards {
		wg.Add(1)
		go func(lat *timings, idx []int) {
			defer wg.Done()
			for _, i := range idx {
				ld := loads[i]
				if d.offsets != nil {
					if wait := time.Until(start.Add(d.offsets[i])); wait > 0 {
						time.Sleep(wait)
					}
				}
				dev := fleet.NewSimDevice(d.masterKey, ld.imsi)
				sealed, err := dev.SealRecords(core.MarshalRecords(ld.records))
				if err == nil {
					sent := time.Now()
					if err = d.cl.UploadRecords(ld.imsi, sealed); err == nil {
						lat.upload = append(lat.upload, time.Since(sent))
					}
				}
				if err != nil {
					d.lost.Add(1)
					fmt.Fprintf(os.Stderr, "seedload: %s: %v\n", ld.imsi, err)
					continue
				}
				for _, rep := range ld.reports {
					sr, err := dev.SealReport(rep.Marshal())
					if err == nil {
						err = d.cl.Report(ld.imsi, sr)
					}
					if err != nil {
						d.lost.Add(1)
						fmt.Fprintf(os.Stderr, "seedload: %s report: %v\n", ld.imsi, err)
					}
				}
				sent := time.Now()
				if payload, err := d.cl.Query(ld.imsi, ld.query); err == nil {
					lat.query = append(lat.query, time.Since(sent))
					if _, ok, _ := dev.OpenSuggest(payload); ok {
						d.suggestions.Add(1)
					}
				}
			}
		}(&lats[w], idx)
	}
	wg.Wait()
	wall := time.Since(start)
	d.upload, d.query = metrics.NewSeries(), metrics.NewSeries()
	for _, lat := range lats {
		for _, v := range lat.upload {
			d.upload.Add(v)
		}
		for _, v := range lat.query {
			d.query.Add(v)
		}
	}
	return wall
}

// writeJSON writes the run record v to path ("-" for stdout, "" for
// nowhere) and reports whether that worked.
func writeJSON(path string, v any) bool {
	if path == "" {
		return true
	}
	buf, err := json.MarshalIndent(v, "", "  ")
	if err == nil {
		buf = append(buf, '\n')
		if path == "-" {
			_, err = os.Stdout.Write(buf)
		} else {
			err = os.WriteFile(path, buf, 0o644)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "seedload: writing %s: %v\n", path, err)
	}
	return err == nil
}

func main() { os.Exit(run()) }

// run is main behind an exit status, so deferred closes run before the
// process exits.
func run() int {
	var (
		addr    = flag.String("addr", "127.0.0.1:7316", "seedfleetd address")
		devices = flag.Int("devices", 1000, "simulated device count")
		workers = flag.Int("workers", 4, "client shards (worker goroutines)")
		conns   = flag.Int("conns", 0, "connections to the server (default: workers)")
		testbed = flag.Int("testbed", 32, "derive the first N devices' records from real cloned-testbed SEED runs (0: all synthetic)")
		wlSpec  = flag.String("spec", "", "pace uploads by this workload spec's arrival process (see cmd/seedwl) instead of max rate")
		seedVal = flag.Int64("seed", 1, "workload seed")
		master  = flag.String("master", "", "fleet master key, 32 hex digits (default: built-in dev key)")
		jsonOut = flag.String("json", "", "write machine-readable results to FILE (\"-\" for stdout)")
	)
	flag.Parse()
	if *devices < 1 {
		fmt.Fprintf(os.Stderr, "seedload: -devices %d: need at least 1 device\n", *devices)
		return 2
	}
	if *workers < 1 {
		fmt.Fprintf(os.Stderr, "seedload: -workers %d: need at least 1 worker\n", *workers)
		return 2
	}

	masterKey := fleet.DefaultMasterKey
	if *master != "" {
		k, err := fleet.ParseMasterKey(*master)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		masterKey = k
	}
	if *conns <= 0 {
		*conns = *workers
	}

	loads, expected, fromTestbed := genFleet(*seedVal, *devices, *testbed)
	logf("seedload: %d devices (%d testbed-derived), %d workers, %d conns, %d record rows/device (model %d bytes)",
		*devices, fromTestbed, *workers, *conns, recordsPerDevice, len(expected))

	// With -spec, device i's upload waits until its compiled arrival
	// offset (compressed by specTimescale) — the server's load then
	// carries the spec's diurnal curves and signaling-storm bursts instead
	// of arriving as one max-rate wall.
	var offsets []time.Duration
	pacedBy := ""
	if *wlSpec != "" {
		blob, err := os.ReadFile(*wlSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "seedload:", err)
			return 2
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
			return 2
		}
		for i := range offsets {
			offsets[i] = time.Duration(float64(offsets[i]) * specTimescale)
		}
		pacedBy = sp.Name
		logf("seedload: pacing by spec %q ×%g: uploads span %v", sp.Name, specTimescale, offsets[len(offsets)-1])
	}

	cl := fleet.NewClient(fleet.ClientConfig{Addr: *addr, Conns: *conns, Seed: *seedVal})
	defer cl.Close()

	d := driver{cl: cl, masterKey: masterKey, workers: *workers, offsets: offsets}
	wall := d.run(loads)

	res := result{
		Devices: *devices, Workers: *workers, Conns: *conns,
		Records: recordsPerDevice, Reports: reportsPerDevice, Testbed: fromTestbed,
		PacedBySpec: pacedBy, Seed: *seedVal,
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		WallMS:        float64(wall) / float64(time.Millisecond),
		UploadsPerSec: float64(*devices) / wall.Seconds(),
		Lost:          d.lost.Load(),
		Retries:       cl.Retries(),
		Redials:       cl.Redials(),
		Suggestions:   d.suggestions.Load(),
		UploadP50MS:   ms(d.upload, 50),
		UploadP95MS:   ms(d.upload, 95),
		UploadP99MS:   ms(d.upload, 99),
		QueryP50MS:    ms(d.query, 50),
		QueryP95MS:    ms(d.query, 95),
		QueryP99MS:    ms(d.query, 99),

		FramesPerWrite: fleet.Ratio(cl.Frames(), cl.Writes()),
	}
	totalOps := *devices * (2 + reportsPerDevice) // upload + reports + query
	res.OpsPerSec = float64(totalOps) / wall.Seconds()

	if st, err := cl.FetchStats(); err == nil {
		res.Server = st
		res.ResponsesPerFlush = fleet.Ratio(st.Responses, st.Flushes)
		res.RecordsPerFsync = fleet.Ratio(st.JournalRecords, st.JournalSyncs)
	} else {
		fmt.Fprintf(os.Stderr, "seedload: stats pull: %v\n", err)
	}

	exit := 0
	got, err := cl.FetchModel()
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
	if res.Lost > 0 {
		fmt.Fprintf(os.Stderr, "seedload: %d uploads LOST\n", res.Lost)
		exit = 1
	}

	logf("seedload: %d uploads in %.1fms — %.0f uploads/s, %.0f ops/s (lost=%d retries=%d redials=%d)",
		*devices, res.WallMS, res.UploadsPerSec, res.OpsPerSec, res.Lost, res.Retries, res.Redials)
	logf("seedload: %.2f frames/write, %.2f responses/flush, %.2f records/fsync",
		res.FramesPerWrite, res.ResponsesPerFlush, res.RecordsPerFsync)
	logf("seedload: %s", latSummary(d.upload, "upload"))
	logf("seedload: %s", latSummary(d.query, "query"))
	if res.ModelMatch != nil {
		logf("seedload: model match: %v (%d bytes, %d suggestions received)", *res.ModelMatch, res.ModelBytes, res.Suggestions)
	}

	if !writeJSON(*jsonOut, res) {
		exit = 1
	}
	return exit
}
