package main

import (
	"bytes"
	"fmt"
	"io/fs"
	"path/filepath"
	"strconv"
	"sync"
	"time"
)

const (
	// Devices per repetition: enough that a repetition lasts several
	// tenths of a second against a daemon that folds ~7 k uploads/s in
	// memory and ~1 k/s when every ack waits for an fsync.
	fleetMemDevices     = 2500
	fleetJournalDevices = 400
	// journalReps journaled repetitions close the traced run.
	journalReps = 5
	// callersPerConn callers share one connection of the client's pool:
	// they outnumber the connections so that a later pipelining client
	// has something to coalesce. At most one request per connection is
	// in flight.
	callersPerConn = 4
	// requestsPerDevice: upload, report, query.
	requestsPerDevice = 3

	daemonReadyTimeout = 5 * time.Second
	daemonStopGrace    = 5 * time.Second
)

// daemon is one seedfleetd process and, when journaling, its directory.
type daemon struct {
	proc    *child
	addr    string
	journal string
}

func startFleetd(c *runCtx, shards int, journalDir string) (*daemon, error) {
	proc, addr, err := startDaemon(c.tools.fleetdCommand(shards, journalDir), fleetdReadyMarker, daemonReadyTimeout)
	if err != nil {
		return nil, err
	}
	return &daemon{proc: proc, addr: addr, journal: journalDir}, nil
}

// shape is a repetition's width: the daemon's aggregation workers
// (-shards), and how hard the drive pushes — callers goroutines, each
// waiting for every reply before its next request, share conns
// connections.
type shape struct{ shards, conns, callers int }

// The load is the same in both lanes, N connections with callersPerConn
// callers each; narrow gives the daemon one aggregation worker, wide N.
// (A single caller on a single connection would leave both processes idle
// half of the time, and what it measures on a shared host is how long an
// idle core takes to wake: that spread by 29 % between runs of one commit.)
func narrow(n int) shape { return shape{1, n, callersPerConn * n} }
func wide(n int) shape   { return shape{n, n, callersPerConn * n} }
func (s shape) attrs(workload string) map[string]string {
	return map[string]string{"workload": workload, "shards": strconv.Itoa(s.shards), "conns": strconv.Itoa(s.conns), "callers": strconv.Itoa(s.callers)}
}

// drive is what one closed-loop pass over the devices measured.
type drive struct {
	wall                         time.Duration
	round, upload, report, query []float64 // ms, one per device
	failedRequests               int
	counters                     fleetCounters
	journalBytes                 float64
	daemonCPU                    time.Duration
	daemonRSS                    float64
	clientAllocs                 float64
}

// driveDevices sends every device's upload, report and query through
// conn. Each caller owns a contiguous slice of the devices. Latency is
// timed from the call, so it includes the wait for a free connection.
// With a tracer, every device round and request becomes a span.
func driveDevices(tr *tracer, workload string, conn *fleetConn, rounds []fleetRound, sh shape) drive {
	callers := sh.callers
	d := drive{
		round: make([]float64, len(rounds)), upload: make([]float64, len(rounds)),
		report: make([]float64, len(rounds)), query: make([]float64, len(rounds))}
	failed := make([]int, callers)
	ms := func(a, b time.Time) float64 { return float64(b.Sub(a).Nanoseconds()) / 1e6 }

	passID, done := tr.open(0, "", "pass", sh.attrs(workload))
	rt0 := readRuntime()
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < callers; w++ {
		lo, hi := w*len(rounds)/callers, (w+1)*len(rounds)/callers
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				r := &rounds[i]
				t0 := time.Now()
				if err := conn.upload(r); err != nil {
					failed[w]++
				}
				t1 := time.Now()
				if err := conn.report(r); err != nil {
					failed[w]++
				}
				t2 := time.Now()
				payload, err := conn.query(r)
				t3 := time.Now()
				if err == nil {
					err = r.openSuggest(payload)
				}
				t4 := time.Now()
				if err != nil {
					failed[w]++
				}
				d.upload[i], d.report[i], d.query[i], d.round[i] = ms(t0, t1), ms(t1, t2), ms(t2, t3), ms(t0, t4)
				if tr != nil {
					group := "device-" + r.imsi
					id := tr.add(passID, group, "device", t0, t4, nil)
					tr.add(id, group, "upload", t0, t1, nil)
					tr.add(id, group, "report", t1, t2, nil)
					tr.add(id, group, "query", t2, t3, nil)
					tr.add(id, group, "open_suggest", t3, t4, nil)
				}
			}
		}(w, lo, hi)
	}
	wg.Wait()
	d.wall = time.Since(start)
	d.clientAllocs = readRuntime().since(rt0).allocs
	done()
	for _, n := range failed {
		d.failedRequests += n
	}
	return d
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) float64 {
	var total int64
	_ = filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err == nil && e.Type().IsRegular() {
			if info, err := e.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil // a file compacted away mid-walk is simply not counted
	})
	return float64(total)
}

// repetition runs one drive of the load against a fresh daemon (and a
// fresh journal directory when journaling) and checks what the daemon
// ended up with: nothing dropped, every upload counted once, and a model
// byte-identical to the in-process sequential fold. With keep, the daemon
// is killed instead of drained and its journal left for the recovery
// measurement; the caller then owns the directory.
func repetition(c *runCtx, tr *tracer, load *fleetLoad, sh shape, journal, keep bool) (drive, *daemon, error) {
	journalDir := ""
	if journal {
		var err error
		if journalDir, err = tempDir(c.tmpBase, "journal-"); err != nil {
			return drive{}, nil, err
		}
		if !keep {
			defer removeTemp(journalDir)
		}
	}
	devices := len(load.devices)
	rounds, err := load.seal()
	if err != nil {
		return drive{}, nil, err
	}
	dm, err := startFleetd(c, sh.shards, journalDir)
	if err != nil {
		return drive{}, nil, err
	}
	conn := dialFleet(dm.addr, sh.conns, c.seed)
	d := driveDevices(tr, c.res.Workload, conn, rounds, sh)

	if model, err := conn.model(); err != nil || !bytes.Equal(model, load.expected) {
		d.failedRequests = requestsPerDevice * devices
		c.res.fail("model after %d devices on %d shards is not the sequential fold (fetch error: %v)", devices, sh.shards, err)
	}
	if d.counters, err = conn.counters(); err != nil {
		c.res.fail("stats pull: %v", err)
	} else if d.counters.dropped != 0 || d.counters.uploads != float64(devices) {
		c.res.fail("daemon counted %g uploads (%g dropped) for %d devices", d.counters.uploads, d.counters.dropped, devices)
	}
	if journal {
		d.journalBytes = dirBytes(journalDir)
	}
	conn.close()

	if keep {
		dm.proc.kill()
	} else if err := dm.proc.stop(daemonStopGrace); err != nil {
		c.res.fail("daemon shutdown: %v\n%s", err, dm.proc.stderr)
	}
	d.daemonCPU, d.daemonRSS = dm.proc.usage()
	c.res.Attempted += requestsPerDevice * devices
	c.res.Failed += d.failedRequests
	if d.failedRequests > 0 {
		c.res.fail("%d requests failed with %d callers on %d connections, %d shards", d.failedRequests, sh.callers, sh.conns, sh.shards)
	}
	return d, dm, nil
}

// recovery restarts a daemon on the journal a killed one left behind and
// times it until the first stats reply; the replayed model must again be
// the sequential fold.
func recovery(c *runCtx, load *fleetLoad, journalDir string) (ms float64, err error) {
	start := time.Now()
	dm, err := startFleetd(c, c.n, journalDir)
	if err != nil {
		return 0, err
	}
	conn := dialFleet(dm.addr, 1, c.seed)
	counters, err := conn.counters()
	ms = float64(time.Since(start).Nanoseconds()) / 1e6
	if err != nil {
		c.res.fail("stats pull after restart: %v", err)
	} else if counters.replayed == 0 {
		c.res.fail("restart on a killed daemon's journal replayed no records")
	}
	if model, err := conn.model(); err != nil || !bytes.Equal(model, load.expected) {
		c.res.fail("model replayed from the journal is not the sequential fold (fetch error: %v)", err)
	}
	conn.close()
	if err := dm.proc.stop(daemonStopGrace); err != nil {
		c.res.fail("daemon shutdown after recovery: %v", err)
	}
	return ms, nil
}

// runFleetMem measures the fleet tier without persistence: set-up (load
// generated from the seed and sealed, a daemon started, driven once as the
// warm-up — which already must yield the expected model — and stopped),
// then repetitions alternating between a one-shard and an N-shard daemon,
// each fresh, under the same closed-loop load. The traced run adds one
// traced repetition and the journaled ones.
func runFleetMem(c *runCtx) error {
	var load *fleetLoad
	setup := func() error {
		load = genFleetLoad(c.seed, fleetMemDevices)
		_, _, err := repetition(c, nil, load, wide(c.n), false, false)
		return err
	}
	var wides []drive
	pass := func(isWide bool) (sample, error) {
		sh := narrow(c.n)
		if isWide {
			sh = wide(c.n)
		}
		d, _, err := repetition(c, nil, load, sh, false, false)
		if isWide {
			wides = append(wides, d)
		}
		return sample{wall: d.wall, cpu: d.daemonCPU, rssMB: d.daemonRSS, ops: d.round, width: sh.callers}, err
	}
	share := 1.0
	if c.tr != nil {
		share = 0.5 // the traced and the journaled repetitions and the probes take the rest
	}
	l, err := c.measure(share, setup, pass)
	if err != nil {
		return err
	}
	c.res.Digests["inputs"] = load.inputs
	c.res.Digests["model"] = digestBytes(load.expected)
	c.endToEnd(len(load.devices), l)
	if c.tr == nil {
		return nil
	}

	// Per-layer readings come from the N-shard repetitions, pooled.
	var upload, report, query []float64
	var sum fleetCounters
	var allocs float64
	for _, d := range wides {
		upload, report, query = append(upload, d.upload...), append(report, d.report...), append(query, d.query...)
		sum.uploads += d.counters.uploads
		sum.duplicates += d.counters.duplicates
		sum.backpressured += d.counters.backpressured
		sum.errors += d.counters.errors
		sum.dropped += d.counters.dropped
		sum.retries += d.counters.retries
		sum.redials += d.counters.redials
		allocs += d.clientAllocs
	}
	for _, lat := range []struct {
		name string
		ms   []float64
	}{{"fleet.upload", upload}, {"fleet.query", query}} {
		sorted := sortedCopy(lat.ms)
		c.res.setValue(lat.name+"_p50_ms", percentile(sorted, 50))
		p, v := tail(sorted, 99)
		c.res.setValue(lat.name+"_p99_ms", v)
		if p != 99 {
			c.res.Notes = append(c.res.Notes, fmt.Sprintf("%s_p99_ms is p%g: %d samples do not support p99", lat.name, p, len(sorted)))
		}
	}
	c.res.setValue("fleet.report_p50_ms", median(report))
	c.res.setValue("runner.scaling", medianWall(l.w1)/medianWall(l.wN))
	c.res.setValue("runtime.allocs_per_op", allocs/sum.uploads)
	c.res.setValue("fleet.retries", sum.retries)
	c.res.setValue("fleet.redials", sum.redials)
	c.res.setValue("fleet.backpressured", sum.backpressured)
	c.res.setValue("fleet.duplicates", sum.duplicates)
	c.res.setValue("fleet.errors", sum.errors)
	c.res.setValue("fleet.dropped", sum.dropped)

	// One traced N-shard repetition: its wall against the untraced ones is
	// what recording five spans per device costs.
	d, _, err := repetition(c, c.tr, load, wide(c.n), false, false)
	if err != nil {
		return err
	}
	c.res.setValue("trace_overhead_ratio", d.wall.Seconds()/medianWall(l.wN))
	return journaled(c)
}

// journaled reads the durable path: a few N-shard repetitions of a smaller
// load against -journal on the checkout's disk, where every ack waits for
// an fsync, then the last daemon killed and its journal replayed. These
// are per-layer readings without a bound: what an fsync costs on a shared
// disk moves by factors within minutes, so the rate says as much about
// the neighbours as about the program; the counts beside it (records per
// fsync, bytes per upload) are the program's own.
func journaled(c *runCtx) error {
	load := genFleetLoad(c.seed, fleetJournalDevices)
	var rates []float64
	var records, syncs, bytesWritten, uploads float64
	var last *daemon
	for i := 0; i < journalReps; i++ {
		d, dm, err := repetition(c, nil, load, wide(c.n), true, i == journalReps-1)
		if err != nil {
			return err
		}
		rates = append(rates, float64(len(load.devices))/d.wall.Seconds())
		records += d.counters.journalRecords
		syncs += d.counters.journalSyncs
		bytesWritten += d.journalBytes
		uploads += d.counters.uploads
		last = dm
	}
	defer removeTemp(last.journal)
	c.res.setValue("fleet.journal_ops_per_s", median(rates))
	if syncs > 0 {
		c.res.setValue("fleet.records_per_fsync", records/syncs)
		c.res.setValue("fleet.journal_bytes_per_upload", bytesWritten/uploads)
	}
	ms, err := recovery(c, load, last.journal)
	if err != nil {
		return err
	}
	c.res.setValue("fleet.recovery_ms", ms)
	return nil
}
