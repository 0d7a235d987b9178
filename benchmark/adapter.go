package main

// adapter.go is the one file of the benchmark that names symbols of the
// repository, paths of its commands, their flags, or their output format.
// Everything else in this package is generic measurement code that works
// through the plain-Go types declared here, so a change to the program's
// API is absorbed in this file alone. README.md lists the pinned surface.
//
// It deliberately stays off the package-level switches
// (seed.SetParallelism, seed.SetCloneFromPrototype) and the *Batch
// wrappers: worker counts come from the benchmark's own runner.New(n).

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"time"

	seed "github.com/seed5g/seed"
	"github.com/seed5g/seed/internal/cause"
	"github.com/seed5g/seed/internal/core"
	"github.com/seed5g/seed/internal/crypto5g"
	"github.com/seed5g/seed/internal/fleet"
	"github.com/seed5g/seed/internal/nas"
	"github.com/seed5g/seed/internal/netemu"
	"github.com/seed5g/seed/internal/policy"
	"github.com/seed5g/seed/internal/radio"
	"github.com/seed5g/seed/internal/report"
	"github.com/seed5g/seed/internal/runner"
	"github.com/seed5g/seed/internal/sched"
	"github.com/seed5g/seed/internal/sim"
	"github.com/seed5g/seed/internal/workload"
)

// ---------------------------------------------------------------------------
// The two commands the benchmark drives as processes
// ---------------------------------------------------------------------------

// tools are the built binaries of the commands under test.
type tools struct {
	seedbench  string
	seedfleetd string
}

// buildTools compiles cmd/seedbench and cmd/seedfleetd of the checkout at
// root into binDir and reports how long that took (almost nothing once
// the Go build cache is warm).
func buildTools(root, binDir string) (tools, time.Duration, error) {
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return tools{}, 0, err
	}
	abs, err := filepath.Abs(binDir)
	if err != nil {
		return tools{}, 0, err
	}
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", abs+string(filepath.Separator), "./cmd/seedbench", "./cmd/seedfleetd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return tools{}, 0, fmt.Errorf("go build of the commands under test: %w\n%s", err, out)
	}
	return tools{
		seedbench:  filepath.Join(abs, "seedbench"),
		seedfleetd: filepath.Join(abs, "seedfleetd"),
	}, time.Since(start), nil
}

// suiteSamples is seedbench's -samples: cases replayed per failure class.
// The command's default is 100; 30 keeps one execution near a quarter of a
// second (and the -parallel N one, which also runs seedbench's own paired
// timing of every experiment, under a second).
const suiteSamples = 30

// drawSeed returns the i-th seed drawn from the run's: the run's own
// first, then derived ones. A workload whose cost depends on which few
// dozen cases a seed happens to sample (one seedbench execution: 150 to
// 210 ms of CPU across seeds; one compiled corpus: 56 to 76 of its costly
// stale-everywhere legacy cells) runs several draws per pass, so that runs
// at different seeds do nearly the same amount of work.
func drawSeed(seedVal int64, i int) int64 {
	if i == 0 {
		return seedVal
	}
	return sched.DeriveSeed(seedVal, uint64(i)) & math.MaxInt64 // a command-line flag reads a leading '-' as a flag
}

// suiteCommand regenerates the paper's whole evaluation once.
func (t tools) suiteCommand(seedVal int64, parallel int) *exec.Cmd {
	return exec.Command(t.seedbench, "-exp", "all", "-samples", strconv.Itoa(suiteSamples),
		"-seed", strconv.FormatInt(seedVal, 10), "-parallel", strconv.Itoa(parallel))
}

// suiteTimingLine matches what seedbench prints about its own speed: the
// "[table4 regenerated in 12ms ...]" line after each experiment and the
// closing total at -parallel > 1. Everything else is the deterministic
// output the digest covers.
var suiteTimingLine = regexp.MustCompile(`(?m)^(\s*\[\S+ regenerated in .*\]|total wall-clock .*)\n`)

func stripSuiteTiming(stdout []byte) []byte { return suiteTimingLine.ReplaceAll(stdout, nil) }

// fleetdReadyMarker precedes the listen address in seedfleetd's first log
// line ("seedfleetd: listening on 127.0.0.1:40123 (2 shards, queue 256)").
const fleetdReadyMarker = "listening on "

// fleetdCommand starts the fleet daemon on a free loopback port; an empty
// journalDir runs it without persistence.
func (t tools) fleetdCommand(shards int, journalDir string) *exec.Cmd {
	args := []string{"-addr", "127.0.0.1:0", "-shards", strconv.Itoa(shards)}
	if journalDir != "" {
		args = append(args, "-journal", journalDir)
	}
	return exec.Command(t.seedfleetd, args...)
}

// ---------------------------------------------------------------------------
// Simulator cells
// ---------------------------------------------------------------------------

// cellSet is a list of independent simulator cells behind plain
// functions. run(i) executes cell i and keeps its outcome in slot i (so
// concurrent calls with distinct i are safe); outcome(i) returns what was
// kept, as a value encoding/json renders canonically.
type cellSet struct {
	n       int
	run     func(i int)
	outcome func(i int) any
	// label describes cell i for spans.
	label func(i int) (scenario, mode string, cellSeed int64)
	// inputs is the digest of the generated inputs (cells, seeds).
	inputs string
}

// runCells executes fn(0..n-1) on a fresh pool of the given width, the
// way every experiment of the program fans its cells out.
func runCells(workers, n int, fn func(i int)) {
	runner.Map(runner.New(workers), n, func(i int) struct{} {
		fn(i)
		return struct{}{}
	})
}

func specMode(s string) seed.Mode {
	switch s {
	case "seed-u":
		return seed.ModeSEEDU
	case "seed-r":
		return seed.ModeSEEDR
	default:
		return seed.ModeLegacy
	}
}

// corpusInfo is what compiling the corpus tells besides the cells.
type corpusInfo struct {
	compile time.Duration // per window
	// mixMAPE is the compiled cause mix's mean absolute percentage error
	// against the paper's Table 1: the accuracy figure every simulator
	// speed is stated beside. Exact for a seed.
	mixMAPE float64
	spec    *workload.Spec
	cells   []workload.Cell
}

// corpusWindows is how many windows of the spec, each compiled at a seed
// of its own (drawSeed), make the corpus.
const corpusWindows = 4

// newCorpus compiles the built-in paper-mix spec at the seed, window by
// window: about 2700 management-failure cells each, over six scenario
// classes plus the two mobility races, three device populations, RF
// profiles.
func newCorpus(seedVal int64) (*cellSet, corpusInfo, error) {
	start := time.Now()
	sp := workload.DefaultSpec()
	var cells []workload.Cell
	for w := 0; w < corpusWindows; w++ {
		window, err := workload.Compile(sp, drawSeed(seedVal, w))
		if err != nil {
			return nil, corpusInfo{}, fmt.Errorf("compiling %s: %w", sp.Name, err)
		}
		cells = append(cells, window...)
	}
	info := corpusInfo{compile: time.Since(start) / corpusWindows, spec: sp, cells: cells}
	info.mixMAPE, _ = workload.MixScores(cells)

	modes := make([]seed.Mode, len(cells))
	for i, c := range cells {
		modes[i] = specMode(c.Mode)
	}
	out := make([]workload.Outcome, len(cells))
	return &cellSet{
		n:       len(cells),
		run:     func(i int) { out[i] = seed.RunWorkloadCell(sp, cells[i], modes[i], nil) },
		outcome: func(i int) any { return out[i] },
		label: func(i int) (string, string, int64) {
			return cells[i].Scenario, cells[i].Mode, cells[i].Seed
		},
		inputs: digest(cells),
	}, info, nil
}

// One delivery pass replays, for each of the four data-delivery failure
// kinds, a few legacy cases (tens of milliseconds each: up to thirty
// simulated minutes of three apps' traffic while Android's ladder climbs)
// and many SEED-U and SEED-R cases (a fraction of a millisecond to a few:
// SEED repairs within simulated seconds). The counts per kind are fixed,
// so that passes at different seeds do the same mix of work and only the
// cells' random streams differ; a kind the seed's dataset holds fewer
// cases of (the rarest has about 60 of the 300) repeats its cases, each
// repeat with a cell seed of its own.
const (
	deliveryLegacyPerKind = 4
	deliverySEEDPerKind   = 40
)

type deliveryCell struct {
	dc   seed.DeliveryCase
	mode seed.Mode
	seed int64
}

// newDelivery draws the delivery cases from the seed's synthesized
// dataset and lays them out so the expensive legacy cells are spread
// evenly through the list (the runner hands out contiguous batches).
func newDelivery(seedVal int64) (*cellSet, error) {
	byKind := map[seed.DeliveryFailureKind][]seed.DeliveryCase{}
	for _, dc := range seed.GenerateDataset(seedVal).Delivery() {
		byKind[dc.Kind] = append(byKind[dc.Kind], dc)
	}
	if len(byKind) == 0 {
		return nil, fmt.Errorf("dataset at seed %d has no delivery cases", seedVal)
	}
	kinds := make([]seed.DeliveryFailureKind, 0, len(byKind))
	for k := range byKind {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })

	var cells []deliveryCell
	add := func(dc seed.DeliveryCase, m seed.Mode) {
		cells = append(cells, deliveryCell{dc: dc, mode: m, seed: sched.DeriveSeed(seedVal, uint64(len(cells)))})
	}
	// Kind ki's legacy cells follow its SEED cells of rounds
	// first, first+every, ...; the kinds' firsts are staggered.
	every := deliverySEEDPerKind / deliveryLegacyPerKind
	for j := 0; j < deliverySEEDPerKind; j++ {
		for ki, k := range kinds {
			dc := byKind[k][j%len(byKind[k])]
			add(dc, seed.ModeSEEDU)
			add(dc, seed.ModeSEEDR)
			first := ki * every / len(kinds)
			if j >= first && (j-first)%every == 0 && (j-first)/every < deliveryLegacyPerKind {
				add(dc, seed.ModeLegacy)
			}
		}
	}
	out := make([]seed.DeliveryReplayResult, len(cells))
	return &cellSet{
		n:       len(cells),
		run:     func(i int) { out[i] = seed.ReplayDelivery(cells[i].dc, cells[i].mode, cells[i].seed) },
		outcome: func(i int) any { return out[i] },
		label: func(i int) (string, string, int64) {
			return cells[i].dc.Kind.String(), cells[i].mode.String(), cells[i].seed
		},
		inputs: digest(fmt.Sprint(cells)),
	}, nil
}

// ---------------------------------------------------------------------------
// Fleet load and client
// ---------------------------------------------------------------------------

// What one simulated device sends, as cmd/seedload generates it: four
// learning-record rows over operator-customized causes (the §5.3
// unknown-failure space, 12 codes per plane), one failure report, one
// model query.
const (
	fleetRecordRows = 4
	fleetCauses     = 12
)

type fleetDevice struct {
	imsi    string
	records map[cause.Cause]map[core.ActionID]int
	blob    []byte // the records as the carrier app uploads them
	report  []byte
	query   cause.Cause
}

// fleetLoad is the generated load of n devices and the model the server
// must end up with: the in-process sequential fold of every device's
// records, serialized canonically.
type fleetLoad struct {
	devices  []fleetDevice
	expected []byte
	inputs   string
}

func genFleetLoad(seedVal int64, n int) *fleetLoad {
	l := &fleetLoad{devices: make([]fleetDevice, n)}
	baseline := core.NewLearner(0.1, rand.New(rand.NewSource(seedVal)))
	var all bytes.Buffer
	for i := range l.devices {
		d := genFleetDevice(seedVal, i)
		baseline.Crowdsource(d.records)
		fmt.Fprintf(&all, "%s|%x|%x|%d/%d\n", d.imsi, d.blob, d.report, d.query.Plane, d.query.Code)
		l.devices[i] = d
	}
	l.expected = fleet.MarshalModel(baseline.Export())
	l.inputs = digestBytes(all.Bytes())
	return l
}

func genFleetDevice(rootSeed int64, i int) fleetDevice {
	rng := rand.New(rand.NewSource(sched.DeriveSeed(rootSeed, uint64(i))))
	d := fleetDevice{
		imsi:    fmt.Sprintf("310170%09d", i+1),
		records: make(map[cause.Cause]map[core.ActionID]int),
	}
	for r := 0; r < fleetRecordRows; r++ {
		c := cause.Cause{Plane: cause.ControlPlane, Code: cause.Code(150 + rng.Intn(fleetCauses))}
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
	rep := report.FailureReport{Type: report.FailDNS, Direction: report.DirBoth, Domain: "fleet.example.com"}
	switch rng.Intn(3) {
	case 1:
		rep = report.FailureReport{Type: report.FailTCP, Direction: report.DirUplink,
			Addr: [4]byte{10, 0, 0, byte(rng.Intn(256))}, Port: 443}
	case 2:
		rep = report.FailureReport{Type: report.FailUDP, Direction: report.DirDownlink,
			Addr: [4]byte{10, 0, 1, byte(rng.Intn(256))}, Port: 53}
	}
	d.blob = core.MarshalRecords(d.records)
	d.report = rep.Marshal()
	return d
}

// fleetRound is one device's requests sealed for one daemon lifetime. The
// envelope counters start over with every fresh daemon, so rounds are
// sealed anew (with byte-identical results) before each repetition.
type fleetRound struct {
	imsi           string
	upload, report []byte
	query          cause.Cause
	dev            *fleet.SimDevice
}

// seal derives every device's subscriber envelope and seals its upload
// and report, reporting the first failure.
func (l *fleetLoad) seal() ([]fleetRound, error) {
	rounds := make([]fleetRound, len(l.devices))
	for i, d := range l.devices {
		dev := fleet.NewSimDevice(fleet.DefaultMasterKey, d.imsi)
		up, err := dev.SealRecords(d.blob)
		if err != nil {
			return nil, fmt.Errorf("sealing records of %s: %w", d.imsi, err)
		}
		rep, err := dev.SealReport(d.report)
		if err != nil {
			return nil, fmt.Errorf("sealing report of %s: %w", d.imsi, err)
		}
		rounds[i] = fleetRound{imsi: d.imsi, upload: up, report: rep, query: d.query, dev: dev}
	}
	return rounds, nil
}

// openSuggest opens the sealed answer to the round's query; an empty
// payload (the model abstained) is not an error.
func (r *fleetRound) openSuggest(payload []byte) error {
	_, _, err := r.dev.OpenSuggest(payload)
	return err
}

// fleetConn is the program's pooled fleet client: requests block on one
// of conns connections, retry with backoff, and honour backpressure.
type fleetConn struct{ cl *fleet.Client }

func dialFleet(addr string, conns int, seedVal int64) *fleetConn {
	return &fleetConn{fleet.NewClient(fleet.ClientConfig{Addr: addr, Conns: conns, Seed: seedVal})}
}

func (c *fleetConn) upload(r *fleetRound) error { return c.cl.UploadRecords(r.imsi, r.upload) }
func (c *fleetConn) report(r *fleetRound) error { return c.cl.Report(r.imsi, r.report) }
func (c *fleetConn) query(r *fleetRound) ([]byte, error) {
	return c.cl.Query(r.imsi, r.query)
}
func (c *fleetConn) model() ([]byte, error) { return c.cl.FetchModel() }
func (c *fleetConn) close()                 { c.cl.Close() }

// fleetCounters are the server's and the client's counters after a drive.
type fleetCounters struct {
	uploads, duplicates, backpressured, errors, dropped float64
	journalRecords, journalSyncs, replayed              float64
	retries, redials                                    float64
}

func (c *fleetConn) counters() (fleetCounters, error) {
	st, err := c.cl.FetchStats()
	if err != nil {
		return fleetCounters{}, err
	}
	return fleetCounters{
		uploads: float64(st.Uploads), duplicates: float64(st.Duplicates),
		backpressured: float64(st.Backpressured), errors: float64(st.Errors), dropped: float64(st.Dropped),
		journalRecords: float64(st.JournalRecords), journalSyncs: float64(st.JournalSyncs),
		replayed: float64(st.ReplayedRecords),
		retries:  float64(c.cl.Retries()), redials: float64(c.cl.Redials()),
	}, nil
}

// ---------------------------------------------------------------------------
// Micro-probes: one layer's public functions, timed from outside
// ---------------------------------------------------------------------------

// probe measures one layer in isolation and reports readings by metric
// name through set.
type probe struct {
	layer string
	run   func(set func(name string, v float64))
}

// Sinks keep probe results live.
var (
	sinkBytes  []byte
	sinkInt64  int64
	sinkKernel *sched.Kernel
	sinkAny    any
)

var probeKey = [16]byte{0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c}

func probeProfile() sim.Profile {
	return sim.Profile{IMSI: "310170000000001", K: probeKey, OP: probeKey,
		PLMNs: []uint32{0x310170}, DNN: "internet", DNS: [][4]byte{{10, 45, 0, 53}}, SST: 1}
}

// warmedHandles is what the prototype probe boots: a connected SEED-R
// device with three applications that ran for two simulated minutes — the
// steady state the delivery replays clone.
type warmedHandles struct {
	d    *seed.Device
	apps [3]*seed.App
}

func bootWarmed(tb *seed.Testbed) warmedHandles {
	h := warmedHandles{d: tb.NewDevice(seed.ModeSEEDR, seed.WithAndroidRecommendedTimers())}
	for i, k := range []seed.AppKind{seed.AppVideo, seed.AppWeb, seed.AppEdgeAR} {
		h.apps[i] = h.d.AddApp(k)
	}
	h.d.Start()
	tb.RunUntil(h.d.Connected, time.Minute)
	for _, a := range h.apps {
		a.Start()
	}
	tb.Advance(2 * time.Minute)
	return h
}

func microProbes(workers int) []probe {
	return []probe{
		{"sched", func(set func(string, float64)) {
			k := sched.New(1)
			noop, noopArg, arg := func() {}, func(any) {}, &struct{}{}
			for i := 0; i < 1000; i++ {
				k.After(time.Duration(i+1)*1000*time.Hour, noop)
			}
			c := timeOp(nil, func(int) { k.AfterArg(time.Millisecond, noopArg, arg); k.Step() })
			set("sched.timer_ns", c.ns)
			set("sched.timer_allocs", c.allocs)
			set("sched.cancel_ns", timeOp(nil, func(int) { k.After(time.Second, noop).Stop() }).ns)
			set("sched.new_us", timeOp(nil, func(i int) { sinkKernel = sched.New(int64(i)) }).ns/1e3)
			set("sched.derive_ns", timeOp(nil, func(i int) { sinkInt64 = sched.DeriveSeed(1, uint64(i)) }).ns)
		}},
		{"netemu", func(set func(string, float64)) {
			k := sched.New(1)
			link := netemu.NewLink(k, "probe", time.Millisecond, func(msg any) { sinkAny = msg })
			pkt := radio.Packet{UE: "310170000000001", SessionID: 1, Proto: 6, DstPort: 443, Flow: "probe", Length: 1200}
			c := timeOp(nil, func(int) { link.Send(pkt); k.Step() })
			set("netemu.frame_ns", c.ns)
			set("netemu.frame_allocs", c.allocs)
		}},
		{"nas", func(set func(string, float64)) {
			msgs := []nas.Message{
				&nas.RegistrationRequest{RegistrationType: 1,
					Identity:       nas.MobileIdentity{Type: nas.IdentitySUCI, Value: "310170000000001"},
					RequestedNSSAI: []nas.SNSSAI{{SST: 1}}, LastTAI: &nas.TAI{PLMN: 0x310170, TAC: 7}},
				&nas.PDUSessionEstablishmentRequest{SMHeader: nas.SMHeader{PDUSessionID: 5, PTI: 17},
					SessionType: nas.SessionIPv4, DNN: "internet", SNSSAI: &nas.SNSSAI{SST: 1}},
				&nas.RegistrationReject{Cause: cause.MMPLMNNotAllowed, T3502Seconds: 720},
			}
			wires := make([][]byte, len(msgs))
			for i, m := range msgs {
				wires[i] = nas.Marshal(m)
			}
			per := float64(len(msgs))
			set("nas.marshal_ns", timeOp(nil, func(int) {
				for _, m := range msgs {
					sinkBytes = nas.Marshal(m)
				}
			}).ns/per)
			c := timeOp(nil, func(int) {
				for _, w := range wires {
					m, err := nas.Unmarshal(w)
					if err != nil {
						panic(err) // the codec rejected its own encoding
					}
					sinkAny = m
				}
			})
			set("nas.unmarshal_ns", c.ns/per)
			set("nas.unmarshal_allocs", c.allocs/per)

			ue := nas.NewSecurityContext(probeKey)
			set("nas.protect_ns", timeOp(nil, func(int) { sinkBytes = ue.Protect(crypto5g.Uplink, wires[0]) }).ns)
			var protected [][]byte
			var amf *nas.SecurityContext
			set("nas.unprotect_ns", timeOp(func(n int) {
				tx := nas.NewSecurityContext(probeKey)
				amf = nas.NewSecurityContext(probeKey)
				protected = protected[:0]
				for i := 0; i < n; i++ {
					protected = append(protected, tx.Protect(crypto5g.Uplink, wires[0]))
				}
			}, func(i int) {
				plain, err := amf.Unprotect(crypto5g.Uplink, protected[i])
				if err != nil {
					panic(err)
				}
				sinkBytes = plain
			}).ns)
		}},
		{"crypto5g", func(set func(string, float64)) {
			msg := make([]byte, 64)
			mil, err := crypto5g.NewMilenage(probeKey[:], probeKey[:])
			if err != nil {
				panic(err)
			}
			var rnd [16]byte
			set("crypto5g.milenage_ns", timeOp(nil, func(i int) {
				rnd[0] = byte(i)
				mil.F1(rnd, uint64(i), [2]byte{0x80, 0})
				mil.F2345(rnd)
			}).ns)
			eia2, err := crypto5g.NewEIA2Key(probeKey[:])
			if err != nil {
				panic(err)
			}
			set("crypto5g.eia2_ns", timeOp(nil, func(i int) { eia2.MAC(uint32(i), 1, crypto5g.Uplink, msg) }).ns)
			eea2, err := crypto5g.NewEEA2Key(probeKey[:])
			if err != nil {
				panic(err)
			}
			buf := make([]byte, len(msg))
			set("crypto5g.eea2_ns", timeOp(nil, func(i int) { eea2.XORKeyStream(uint32(i), 1, crypto5g.Uplink, buf, msg) }).ns)

			newEnv := func() *crypto5g.Envelope {
				e, err := crypto5g.NewEnvelope(probeKey[:], probeKey[:], 5)
				if err != nil {
					panic(err)
				}
				return e
			}
			set("crypto5g.newenvelope_ns", timeOp(nil, func(int) { sinkAny = newEnv() }).ns)
			tx := newEnv()
			seal := func() []byte {
				s, err := tx.Seal(crypto5g.Uplink, msg[:32])
				if err != nil {
					panic(err)
				}
				return s
			}
			set("crypto5g.seal_ns", timeOp(nil, func(int) { sinkBytes = seal() }).ns)
			var sealed [][]byte
			var rx *crypto5g.Envelope
			set("crypto5g.open_ns", timeOp(func(n int) {
				tx, rx = newEnv(), newEnv()
				sealed = sealed[:0]
				for i := 0; i < n; i++ {
					sealed = append(sealed, seal())
				}
			}, func(i int) {
				pt, err := rx.Open(crypto5g.Uplink, sealed[i])
				if err != nil {
					panic(err)
				}
				sinkBytes = pt
			}).ns)
		}},
		{"sim", func(set func(string, float64)) {
			card, err := sim.NewCard(sim.DefaultEEPROM, sim.DefaultRAM, probeKey, probeProfile())
			if err != nil {
				panic(err)
			}
			selectIMSI := sim.Command{INS: sim.INSSelect, Data: []byte{byte(sim.EFIMSI >> 8), byte(sim.EFIMSI & 0xff)}}
			read := sim.Command{INS: sim.INSReadBinary}
			set("sim.apdu_ns", timeOp(nil, func(int) {
				if !card.Process(selectIMSI).OK() {
					panic("sim probe: SELECT EF_IMSI refused")
				}
				sinkBytes = card.Process(read).Data
			}).ns/2)

			// Challenges as the network builds them, with a rising SQN so
			// the card accepts every one.
			mil, amfField := card.Milenage(), [2]byte{0x80, 0}
			type challenge struct{ rnd, autn [16]byte }
			var batch []challenge
			sqn := uint64(0)
			set("sim.auth_ns", timeOp(func(n int) {
				batch = batch[:0]
				for i := 0; i < n; i++ {
					sqn++
					var c challenge
					c.rnd[0], c.rnd[1], c.rnd[2] = byte(sqn), byte(sqn>>8), byte(sqn>>16)
					_, _, _, ak := mil.F2345(c.rnd)
					macA, _ := mil.F1(c.rnd, sqn, amfField)
					c.autn = crypto5g.AUTN(sqn, ak, amfField, macA)
					batch = append(batch, c)
				}
			}, func(i int) {
				if card.Authenticate(batch[i].rnd, batch[i].autn).Kind != sim.AuthOK {
					panic("sim probe: card rejected a well-formed challenge")
				}
			}).ns)
		}},
		{"testbed", func(set func(string, float64)) {
			c := timeOp(nil, func(i int) {
				tb := seed.New(int64(i + 1))
				d := tb.NewDevice(seed.ModeSEEDR)
				d.Start()
				if !tb.RunUntil(d.Connected, time.Minute) {
					panic("testbed probe: device did not connect")
				}
			})
			set("testbed.boot_us", c.ns/1e3)
			set("testbed.boot_allocs", c.allocs)
		}},
		{"proto", func(set func(string, float64)) {
			p := seed.NewProto(bootWarmed)
			c := timeOp(nil, func(i int) {
				_, _, put := p.Cell(int64(i + 1))
				put()
			})
			set("proto.restore_us", c.ns/1e3)
			set("proto.restore_allocs", c.allocs)
			set("proto.fresh_us", timeOp(nil, func(i int) { sinkAny, _ = p.Fresh(int64(i + 1)) }).ns/1e3)
		}},
		{"snap", func(set func(string, float64)) {
			tb := seed.New(1)
			h := bootWarmed(tb)
			set("snap.take_us", timeOp(nil, func(int) { sinkAny = tb.Snapshot(&h) }).ns/1e3)
		}},
		{"runner", func(set func(string, float64)) {
			const cells = 4096
			set("runner.dispatch_ns", timeOp(nil, func(int) { runCells(workers, cells, func(int) {}) }).ns/cells)
		}},
		{"fleet", func(set func(string, float64)) {
			d := genFleetDevice(1, 0)
			dev := fleet.NewSimDevice(fleet.DefaultMasterKey, d.imsi)
			sealed, err := dev.SealRecords(d.blob)
			if err != nil {
				panic(err)
			}
			payload := fleet.AppendSealedPayload(nil, d.imsi, sealed)
			frame := fleet.Frame{Type: fleet.TUpload, Payload: payload}
			var wire []byte
			set("fleet.frame_encode_ns", timeOp(nil, func(int) { wire = fleet.AppendFrame(wire[:0], frame) }).ns)
			rd := bytes.NewReader(wire)
			set("fleet.frame_decode_ns", timeOp(nil, func(int) {
				rd.Reset(wire)
				f, err := fleet.ReadFrame(rd, fleet.DefaultMaxFrame)
				if err != nil {
					panic(err)
				}
				sinkBytes = f.Payload
			}).ns)
			set("fleet.payload_parse_ns", timeOp(nil, func(int) {
				_, s, err := fleet.ParseSealedPayload(payload)
				if err != nil {
					panic(err)
				}
				sinkBytes = s
			}).ns)
			set("fleet.records_unmarshal_ns", timeOp(nil, func(int) {
				rows, err := core.UnmarshalRecords(d.blob)
				if err != nil {
					panic(err)
				}
				sinkAny = rows
			}).ns)
			learner := core.NewLearner(0.1, rand.New(rand.NewSource(1)))
			for i := 0; i < 256; i++ {
				learner.Crowdsource(genFleetDevice(1, i).records)
			}
			set("fleet.fold_ns", timeOp(nil, func(int) { learner.Crowdsource(d.records) }).ns)
			set("fleet.model_marshal_us", timeOp(nil, func(int) { sinkBytes = fleet.MarshalModel(learner.Export()) }).ns/1e3)
			set("fleet.seal_us", timeOp(nil, func(int) {
				s, err := fleet.NewSimDevice(fleet.DefaultMasterKey, d.imsi).SealRecords(d.blob)
				if err != nil {
					panic(err)
				}
				sinkBytes = s
			}).ns/1e3)
		}},
	}
}

// ---------------------------------------------------------------------------
// Probe cells: per-cell work counts from the layers' public Stats()
// ---------------------------------------------------------------------------

// probeCellCounts boots one cell per scenario class with the public
// testbed API (so the benchmark holds the testbed and can read every
// layer's counters afterwards — the program's own replay functions keep
// theirs private), each under legacy and SEED-R handling, and returns the
// per-cell mean of every counter plus the cells' mean wall time. The
// counts repeat exactly for a seed.
func probeCellCounts(seedVal int64) (perCell map[string]float64, meanWallUS float64) {
	type scenario struct {
		name string
		run  func(tb *seed.Testbed, mode seed.Mode) *seed.Device
	}
	connect := func(tb *seed.Testbed, d *seed.Device) {
		d.Start()
		tb.RunUntil(d.Connected, time.Minute)
	}
	scenarios := []scenario{
		{"transient-control", func(tb *seed.Testbed, m seed.Mode) *seed.Device {
			d := tb.NewDevice(m)
			tb.InjectControlFailure(d, uint8(cause.MMNoSuitableCellsInTA), seed.InjectOpts{Count: -1, HealAfter: 6 * time.Second})
			d.Start()
			tb.RunUntil(d.Connected, 90*time.Minute)
			return d
		}},
		{"transient-data", func(tb *seed.Testbed, m seed.Mode) *seed.Device {
			d := tb.NewDevice(m)
			tb.InjectDataFailure(d, uint8(cause.SMInsufficientResources), seed.InjectOpts{Count: -1, HealAfter: 4 * time.Second})
			d.Start()
			tb.RunUntil(d.Connected, 90*time.Minute)
			return d
		}},
		{"desync", func(tb *seed.Testbed, m seed.Mode) *seed.Device {
			d := tb.NewDevice(m)
			connect(tb, d)
			tb.DesyncIdentity(d)
			tb.SimulateMobility(d)
			onset := tb.Now()
			tb.RunUntil(func() bool { return tb.Now() > onset && d.Connected() }, 90*time.Minute)
			return d
		}},
		{"user-action", func(tb *seed.Testbed, m seed.Mode) *seed.Device {
			d := tb.NewDevice(m)
			tb.ExpirePlan(d)
			d.Start()
			tb.Advance(2 * time.Minute)
			return d
		}},
		{"handover-context-loss", func(tb *seed.Testbed, m seed.Mode) *seed.Device {
			tb.EnableCells(4, 0)
			d := tb.NewDevice(m)
			connect(tb, d)
			tb.Advance(20 * time.Second)
			tb.Handover(d, 1, true)
			tb.RunUntil(d.Connected, 90*time.Minute)
			return d
		}},
		{"delivery-tcp-block", func(tb *seed.Testbed, m seed.Mode) *seed.Device {
			d := tb.NewDevice(m, seed.WithAndroidRecommendedTimers())
			apps := []*seed.App{d.AddApp(seed.AppVideo), d.AddApp(seed.AppWeb), d.AddApp(seed.AppEdgeAR)}
			connect(tb, d)
			for _, a := range apps {
				a.Start()
			}
			tb.Advance(time.Minute)
			tb.BlockTCP(d)
			tb.Advance(3 * time.Minute)
			return d
		}},
	}

	perCell = map[string]float64{}
	cells := 0
	var wall time.Duration
	for si, sc := range scenarios {
		for _, mode := range []seed.Mode{seed.ModeLegacy, seed.ModeSEEDR} {
			tb := seed.New(sched.DeriveSeedN(seedVal, uint64(si), uint64(mode)))
			start := time.Now()
			d := sc.run(tb, mode)
			wall += time.Since(start)
			cells++

			inner, net := d.Core(), tb.Network()
			ms := inner.Mdm.Stats()
			perCell["modem.nas_sent_per_cell"] += float64(ms.NASSent)
			perCell["modem.nas_received_per_cell"] += float64(ms.NASReceived)
			amf := net.AMF.Stats()
			perCell["core5g.amf_msgs_per_cell"] += float64(amf.MessagesIn + amf.MessagesOut)
			upf := net.UPF.Stats()
			perCell["core5g.upf_packets_per_cell"] += float64(upf.UplinkPackets + upf.DownlinkPackets)
			perCell["core.decisions_per_cell"] += float64(d.Decisions())
			for _, n := range d.ActionCounts() {
				perCell["core.actions_per_cell"] += float64(n)
			}
			for _, a := range inner.Apps {
				perCell["dataplane.requests_per_cell"] += float64(a.Stats().Requests)
			}
			stalls, _ := inner.Mon.Stats()
			perCell["android.stalls_per_cell"] += float64(stalls)
			cs := inner.Card.Stats()
			perCell["sim.apdus_per_cell"] += float64(cs.APDUs)
			perCell["sim.auth_per_cell"] += float64(cs.AuthOps)
			upSent, _, upDropped := inner.Radio.A2B.Stats()
			downSent, _, downDropped := inner.Radio.B2A.Stats()
			perCell["netemu.frames_per_cell"] += float64(upSent + downSent)
			perCell["netemu.dropped_per_cell"] += float64(upDropped + downDropped)
			_, protected, verified := net.AMF.SecurityActive(d.IMSI())
			perCell["nas.protected_per_cell"] += float64(protected + verified)
		}
	}
	for k := range perCell {
		perCell[k] /= float64(cells)
	}
	return perCell, float64(wall.Microseconds()) / float64(cells)
}

// ---------------------------------------------------------------------------
// Decision-trace overhead
// ---------------------------------------------------------------------------

// policyEligibleCap bounds the cells the decision-trace probe evaluates.
const policyEligibleCap = 300

// policyProbe scores the paper's policy over the corpus's first eligible
// cells twice through the program's evaluator — decision tracing off,
// then full — and returns the wall-time ratio (what the pure-observer
// hooks cost when they are on) and the decision events per cell. The two
// scores must be equal: tracing may not change an outcome.
func policyProbe(info corpusInfo) (tracedRatio, eventsPerCell float64, err error) {
	cells := policy.EligibleCells(info.cells, policyEligibleCap)
	if len(cells) == 0 {
		return 0, 0, fmt.Errorf("corpus has no policy-eligible cells")
	}
	pool := runner.New(1)
	// The two levels alternate, so that neither is always the one that
	// runs on a colder process.
	levels := []core.TraceLevel{core.TraceOff, core.TraceFull}
	var scores [2]policy.Score
	var counts map[string]int
	var walls [2][]float64
	for round := 0; round < 3; round++ {
		for li, level := range levels {
			start := time.Now()
			s, n := policy.Evaluate(pool, info.spec, cells, policy.Paper(), level)
			walls[li] = append(walls[li], float64(time.Since(start)))
			scores[li] = s
			if level == core.TraceFull {
				counts = n
			}
		}
	}
	if scores[0] != scores[1] {
		return 0, 0, fmt.Errorf("decision tracing changed the policy score: off %+v, full %+v", scores[0], scores[1])
	}
	events := 0
	for _, n := range counts {
		events += n
	}
	return median(walls[1]) / median(walls[0]), float64(events) / float64(len(cells)), nil
}
