package seed

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/seed5g/seed/internal/core"
	"github.com/seed5g/seed/internal/core5g"
	"github.com/seed5g/seed/internal/radio"
	"github.com/seed5g/seed/internal/workload"
)

// runScenario drives a cell from the post-boot point to a comparable
// summary. tb and d come either from a clone or from a fresh boot.
type scenarioResult struct {
	Connected bool
	Now       time.Duration
	SIMOps    int
	Stalls    int
	Actions   int
	Reboots   int
	Pending   int
}

func summarize(tb *Testbed, d *Device) scenarioResult {
	stalls, actions := d.inner.Mon.Stats()
	return scenarioResult{
		Connected: d.Connected(),
		Now:       tb.Now(),
		SIMOps:    d.SIMOperations(),
		Stalls:    stalls,
		Actions:   actions,
		Reboots:   d.Reboots(),
		Pending:   tb.Kernel().Pending(),
	}
}

// testProto boots a SEED-R device with apps to connected steady state —
// the richest prototype shape (monitor tickers armed, app traffic and
// pooled packets in flight).
var equivProto = NewProto(func(tb *Testbed) *Device {
	d := tb.NewDevice(ModeSEEDR, WithAndroidRecommendedTimers())
	video := d.AddApp(AppVideo)
	web := d.AddApp(AppWeb)
	d.Start()
	tb.RunUntil(d.Connected, time.Minute)
	video.Start()
	web.Start()
	tb.Advance(2 * time.Minute)
	return d
})

// drive runs a representative failure/recovery scenario from the shared
// post-boot point.
func driveScenario(tb *Testbed, d *Device, which int) scenarioResult {
	switch which {
	case 0: // data-plane block + recovery
		tb.BlockTCP(d)
		tb.RunUntil(func() bool { return d.inner.Mon.Stalled() }, 30*time.Minute)
		tb.Advance(5 * time.Minute)
	case 1: // identity desync on mobility
		tb.DesyncIdentity(d)
		tb.SimulateMobility(d)
		tb.Advance(10 * time.Minute)
	case 2: // DNS outage
		tb.SetDNSOutage(true)
		tb.Advance(15 * time.Minute)
	}
	return summarize(tb, d)
}

// TestClonedCellMatchesFresh is the core equivalence guarantee: for every
// scenario and several cell seeds, a cloned cell must produce a summary
// byte-identical to a fresh-booted cell (same boot-seed protocol). Run
// under any -parallel: clones restore per-worker instances.
func TestClonedCellMatchesFresh(t *testing.T) {
	scenarios := []string{"tcp-block", "desync", "dns-outage"}
	for which, name := range scenarios {
		which, name := which, name
		t.Run(name, func(t *testing.T) {
			for _, cellSeed := range []int64{1, 42, 987654321} {
				freshTB, freshD := equivProto.Fresh(cellSeed)
				want := driveScenario(freshTB, freshD, which)

				cloneTB, cloneD, put := equivProto.Cell(cellSeed)
				got := driveScenario(cloneTB, cloneD, which)
				put()

				if got != want {
					t.Errorf("seed %d: cloned %+v != fresh %+v", cellSeed, got, want)
				}
			}
		})
	}
}

// TestCloneIdempotent reuses one pooled instance for the same cell twice;
// the second clone must reproduce the first bit-for-bit even though the
// instance is dirty from the first run.
func TestCloneIdempotent(t *testing.T) {
	for which := 0; which < 3; which++ {
		tb1, d1, put1 := equivProto.Cell(7)
		first := driveScenario(tb1, d1, which)
		put1()

		tb2, d2, put2 := equivProto.Cell(7)
		second := driveScenario(tb2, d2, which)
		put2()

		if first != second {
			t.Errorf("scenario %d: second clone %+v != first %+v", which, second, first)
		}
	}
}

// boxed is t with its result as an any, so that trials of every result type
// sit in one list.
func boxed[R any](t trial[R]) trial[any] {
	return trial[any]{t.from, func(tb *Testbed, d *Device) any { return t.measure(tb, d) }}
}

// namedTrial is one (steady state, measure body) pair an experiment runs.
type namedTrial struct {
	name string
	tr   trial[any]
}

// experimentTrials lists the (steady state, measure body) pairs the
// experiments and replays run outside the management grid: the desync
// replay and every delivery kind per mode, Figure 3's three blocking kinds,
// Table 5's three classes for one app per mode, Figure 13's ladder at rungs
// 1–3 and SEED's reset per tier and SEED mode, both arms of the signalling
// overhead, and the Figure 11b and Figure 12 runs.
func experimentTrials() []namedTrial {
	var out []namedTrial
	add := func(name string, t trial[any]) { out = append(out, namedTrial{name, t}) }
	for i, mode := range Modes {
		add("desync/"+mode.String(), trial[any]{bareSteady(mode), func(tb *Testbed, d *Device) any { return replayDesyncOn(tb, d) }})
		for _, kind := range []DeliveryFailureKind{DeliveryTCPBlock, DeliveryUDPBlock, DeliveryDNSOutage, DeliveryStalledGateway} {
			add(kind.String()+"/"+mode.String(), boxed(deliveryTrial(DeliveryCase{Kind: kind}, mode)))
		}
		app := AppKinds[i]
		for _, class := range []string{"C-plane", "D-plane", "D-Delivery"} {
			add(fmt.Sprintf("table5/%v/%s/%v", app, class, mode), boxed(appDisruptionTrial(app, class, mode)))
		}
		if mode != ModeLegacy {
			for rung := 1; rung <= 3; rung++ {
				add(fmt.Sprintf("reset/rung%d/%v", rung, mode), boxed(seedResetTrial(mode, rung)))
			}
		}
	}
	for _, kind := range []DeliveryFailureKind{DeliveryTCPBlock, DeliveryUDPBlock, DeliveryDNSOutage} {
		add("figure3/"+kind.String(), boxed(figure3Trial(kind, 3)))
	}
	for rung := 1; rung <= 3; rung++ {
		add(fmt.Sprintf("ladder/rung%d", rung), boxed(ladderTrial(rung)))
	}
	add("signaling/SEED-U", boxed(signalingTrial(ModeSEEDU)))
	add("signaling/Legacy", boxed(signalingTrial(ModeLegacy)))
	add("figure11b", boxed(stressTrial()))
	add("figure12", boxed(collabTrial(10)))
	return out
}

// TestSharedProtosCloneMatchesFresh holds every steady state the experiments
// run on to clone-equals-fresh: each pair of experimentTrials gives a deeply
// equal result through trial.run — a restored, reseeded prototype — and on
// the fresh-boot oracle (Proto.Fresh), at several cell seeds. Every wait runs
// under the missed-announcement detector (auditStops).
func TestSharedProtosCloneMatchesFresh(t *testing.T) {
	for _, nt := range experimentTrials() {
		t.Run(nt.name, func(t *testing.T) {
			audited := trial[any]{nt.tr.from, func(tb *Testbed, d *Device) any {
				auditStops(t, tb)
				return nt.tr.measure(tb, d)
			}}
			for _, cellSeed := range []int64{1, 42, 987654321} {
				want := audited.measure(protos.Proto(audited.from).Fresh(cellSeed))
				if got := audited.run(cellSeed); !reflect.DeepEqual(got, want) {
					t.Errorf("seed %d: cloned %+v != fresh %+v", cellSeed, got, want)
				}
			}
		})
	}
}

// TestOnePathTwoVocabularies pins that the dataset-row and compiled-cell
// entry points are adapters onto one implementation: for one case of each
// scenario class and every mode, ReplayManagement equals RunWorkloadCell
// on the cell carrying the same failure and seed with no RF profile — and
// both equal the same cell run under the missed-announcement detector
// (auditStops), where every wait is polled.
func TestOnePathTwoVocabularies(t *testing.T) {
	cases := []struct {
		fc   FailureCase
		scen string
	}{
		{FailureCase{ControlPlane: true, CauseCode: 9, Scenario: ScenarioDesync}, workload.ScenDesync},
		{FailureCase{ControlPlane: true, CauseCode: 22, Scenario: ScenarioTransient, Heal: 4 * time.Second}, workload.ScenTransient},
		{FailureCase{CauseCode: 26, Scenario: ScenarioSilent, Heal: 6 * time.Second}, workload.ScenSilent},
		{FailureCase{CauseCode: 27, Scenario: ScenarioStaleConfigDevice}, workload.ScenStaleDevice},
		{FailureCase{ControlPlane: true, CauseCode: 62, Scenario: ScenarioStaleConfigEverywhere, Heal: 3 * time.Minute}, workload.ScenStaleEverywhere},
		{FailureCase{CauseCode: 29, Scenario: ScenarioUserAction}, workload.ScenUserAction},
	}
	sp := workload.DefaultSpec()
	for i, c := range cases {
		for _, mode := range Modes {
			t.Run(fmt.Sprintf("%s/%s", c.scen, mode), func(t *testing.T) {
				cellSeed := int64(100 + i)
				plane := "data"
				if c.fc.ControlPlane {
					plane = "control"
				}
				r := ReplayManagement(c.fc, mode, cellSeed)
				got := RunWorkloadCell(sp, workload.Cell{
					Plane: plane, Code: c.fc.CauseCode, Scenario: c.scen, Heal: c.fc.Heal,
					LossyHop: -1, Seed: cellSeed,
				}, mode, nil)
				if !reflect.DeepEqual(got, r) {
					t.Errorf("RunWorkloadCell %+v != ReplayManagement %+v", got, r)
				}
				run := caseCellRun(c.fc)
				tb, d, put := protos.Proto(run.from(mode)).Cell(cellSeed)
				auditStops(t, tb)
				audited := run.measure(tb, d)
				put()
				if !reflect.DeepEqual(audited, r) {
					t.Errorf("polled %+v != ReplayManagement %+v", audited, r)
				}
			})
		}
	}
}

// traceLog is a recording tracer: the decision events in emission order.
// Traces are equal when their events are, the comparison internal/policy
// makes too.
type traceLog []core.DecisionEvent

func (l *traceLog) Decision(ev core.DecisionEvent) { *l = append(*l, ev) }

// oracleCell runs a cell the way every cell ran before it started from a
// prototype: a desync on a full boot under the prototype seed protocol,
// anything else on a testbed constructed on the cell's own seed, and an
// instrumented device BUILT instrumented (the tracer observing before the
// device exists, applet config through the device option, the override before
// anything runs) instead of instrumented after a restore.
func oracleCell(c cellRun, mode Mode, seedVal int64) ReplayResult {
	inst := c.inst
	c.inst = nil
	build := func(tb *Testbed) *Device {
		if inst == nil {
			return tb.NewDevice(mode)
		}
		tb.Observe(inst.Tracer)
		if inst.LearnerLR > 0 {
			tb.plugin.Learner.LR = inst.LearnerLR
		}
		d := tb.NewDevice(mode, func(dc *core.DeviceConfig) {
			if inst.Applet != nil {
				inst.Applet(&dc.Applet)
			}
		})
		if a := d.inner.Applet; a != nil {
			a.SetActionOverride(inst.Override)
		}
		return d
	}
	if c.graph == nil && c.scenario == ScenarioDesync {
		tb, d := NewProto(func(tb *Testbed) *Device {
			d := build(tb)
			d.Start()
			tb.RunUntil(d.Connected, connectDeadline)
			return d
		}).Fresh(seedVal)
		return c.measure(tb, d)
	}
	tb := New(seedVal)
	if c.graph != nil {
		tb.EnableCells(c.graph.N, 0)
	}
	return c.measure(tb, build(tb))
}

// equivCells is one case of each FailureScenario class plus the two
// mobility classes (a walk whose follow-up hop races the re-registration,
// and one whose follow-up lands during SEED's diagnosis).
func equivCells() map[string]cellRun {
	graph := &workload.CellGraph{N: 3, DefaultContextLoss: 0.2,
		Edges: []workload.Edge{{From: 1, To: 2, ContextLoss: 0.9}}}
	return map[string]cellRun{
		"desync":           {controlPlane: true, code: 9, scenario: ScenarioDesync},
		"transient":        {controlPlane: true, code: 22, scenario: ScenarioTransient, heal: 4 * time.Second},
		"silent":           {code: 26, scenario: ScenarioSilent, heal: 6 * time.Second},
		"stale-device":     {code: 27, scenario: ScenarioStaleConfigDevice},
		"stale-device-cp":  {controlPlane: true, code: 11, scenario: ScenarioStaleConfigDevice},
		"stale-everywhere": {controlPlane: true, code: 62, scenario: ScenarioStaleConfigEverywhere, heal: 3 * time.Minute},
		"user-action":      {code: 29, scenario: ScenarioUserAction},
		"handover-desync": {graph: graph, lossyHop: 1, hops: []workload.Hop{
			{To: 1, Dwell: 4 * time.Second}, {To: 2, Dwell: 5 * time.Second}, {To: 0, Dwell: 300 * time.Millisecond}}},
		"tau-race": {graph: graph, lossyHop: 0, hops: []workload.Hop{
			{To: 2, Dwell: 5 * time.Second}, {To: 1, Dwell: 3 * time.Second}}},
	}
}

// TestColdCellMatchesFreshBuild is clone-equals-fresh for the family the
// corpus lives on: every scenario class x mode x seed, with and without an
// RF profile (jitter, a loss window and a partition window inside the
// boot), gives a deeply equal result through runCell — a restored,
// reseeded prototype — and on the oracle. The instrumented round adds a
// non-paper policy, a learner rate and a recording tracer, and holds the
// decision traces equal too.
func TestColdCellMatchesFreshBuild(t *testing.T) {
	withRF := func(c cellRun) cellRun {
		c.jitter = 3 * time.Millisecond
		c.loss = []workload.LossWindow{{AtSec: 0.9, DurSec: 4, Loss: 0.4}}
		c.partitions = []workload.PartitionWindow{{AtSec: 7, DurSec: 2.5}}
		return c
	}
	nonPaper := func(cfg *core.AppletConfig) {
		cfg.CPlaneWait = time.Second
		cfg.TrialWindow = 5 * time.Second
		cfg.TrialOrder = []core.ActionID{core.ActionA1, core.ActionB1, core.ActionA2, core.ActionB2, core.ActionA3, core.ActionB3}
	}
	traced := 0
	for name, base := range equivCells() {
		for _, mode := range Modes {
			t.Run(name+"/"+mode.String(), func(t *testing.T) {
				for _, cellSeed := range []int64{1, 42, 987654321} {
					for _, c := range []cellRun{base, withRF(base)} {
						want := oracleCell(c, mode, cellSeed)
						if got := runCell(c, mode, cellSeed); !reflect.DeepEqual(got, want) {
							t.Errorf("seed %d jitter %v: restored %+v != fresh %+v", cellSeed, c.jitter, got, want)
						}
					}
				}
				var gotTrace, wantTrace traceLog
				c := withRF(base)
				c.inst = &Instrument{Tracer: &wantTrace, Applet: nonPaper, LearnerLR: 0.2}
				want := oracleCell(c, mode, 7)
				c.inst = &Instrument{Tracer: &gotTrace, Applet: nonPaper, LearnerLR: 0.2}
				if got := runCell(c, mode, 7); !reflect.DeepEqual(got, want) {
					t.Errorf("instrumented: restored %+v != fresh %+v", got, want)
				}
				if !reflect.DeepEqual(gotTrace, wantTrace) {
					t.Errorf("instrumented: %d traced events on the restored cell, %d on the fresh one, or they differ", len(gotTrace), len(wantTrace))
				}
				traced += len(gotTrace)
			})
		}
	}
	if traced == 0 {
		t.Error("no decision event traced in any instrumented cell")
	}
}

// TestConstructionDrawsNoRandomness is the guard the cold family rests on:
// building a testbed and a device consumes nothing from the kernel's random
// stream, so the first draw after construction is the first draw of a
// source seeded with the testbed's seed — which is also what Reseed leaves
// behind on a restored prototype.
func TestConstructionDrawsNoRandomness(t *testing.T) {
	const seedVal = 20260930
	want := rand.New(rand.NewSource(seedVal)).Int63()
	for _, cells := range []int{0, 3} {
		for _, mode := range Modes {
			tb := New(seedVal)
			if cells > 0 {
				tb.EnableCells(cells, 0.5)
			}
			tb.NewDevice(mode)
			if got := tb.kern.Rand().Int63(); got != want {
				t.Errorf("%v, %d cells: first draw after construction %d, want %d", mode, cells, got, want)
			}
			ptb, _, put := protos.Proto(coldSteady(mode, cells)).Cell(seedVal)
			if got := ptb.kern.Rand().Int63(); got != want {
				t.Errorf("%v, %d cells: first draw on a reseeded prototype %d, want %d", mode, cells, got, want)
			}
			put()
		}
	}
}

// TestSharedFramePoolSnapshot: a testbed's modems, gNBs, UPF and emulated
// internet all hold the one user-plane frame pool, so the snapshot engine
// reaches it along several paths and has to rewind it once, together with
// the frames that were in flight. A testbed snapshotted with two frames in
// flight — one of them a reply, riding its request's frame turned around —
// and three in the pool, run on for a minute and restored, must find those
// frames holding what they held (a restore replays a frame's content, not
// just its pointer: the minute in between sent each of them round many times)
// and then live the same next minute as an identically built testbed that
// never was.
func TestSharedFramePoolSnapshot(t *testing.T) {
	type state struct {
		Apps           [3][4]int
		UPF            core5g.UPFStats
		Now            time.Duration
		Pending        int
		InFlight, Free int
	}
	frames := func(tb *Testbed) (in []radio.Packet) {
		tb.kern.SnapshotRoots(func(root any) {
			if f, isFrame := root.(*radio.Packet); isFrame {
				in = append(in, *f)
			}
		})
		return in
	}
	inFlight := func(tb *Testbed) int { return len(frames(tb)) }
	replyInFlight := func(tb *Testbed) bool {
		for _, f := range frames(tb) {
			if f.Meta == "app-response" {
				return true
			}
		}
		return false
	}
	free := func(tb *Testbed) int {
		return reflect.ValueOf(tb.net.Frames).Elem().FieldByName("free").Len()
	}
	build := func() (*Testbed, *Device) {
		tb := New(7)
		d := tb.NewDevice(ModeSEEDR, WithAndroidRecommendedTimers())
		for _, kind := range []AppKind{AppVideo, AppWeb, AppEdgeAR} {
			d.AddApp(kind)
		}
		d.Start()
		if !tb.RunUntil(d.Connected, connectDeadline) {
			t.Fatal("device did not connect")
		}
		for _, a := range d.apps {
			a.Start()
		}
		tb.Advance(30 * time.Second)
		if !tb.RunUntil(func() bool { return inFlight(tb) == 2 && replyInFlight(tb) }, time.Minute) {
			t.Fatal("never two frames in flight at once, one of them a reply")
		}
		for free(tb) < 3 {
			tb.net.Frames.Put(new(radio.Packet))
		}
		for free(tb) > 3 {
			tb.net.Frames.Get()
		}
		return tb, d
	}
	minute := func(tb *Testbed, d *Device) state {
		tb.Advance(time.Minute)
		st := state{UPF: tb.net.UPF.Stats(), Now: tb.Now(), Pending: tb.kern.Pending(), InFlight: inFlight(tb), Free: free(tb)}
		for i, a := range d.apps {
			sent, ok, failed, reported := a.Requests()
			st.Apps[i] = [4]int{sent, ok, failed, reported}
		}
		return st
	}

	tb, d := build()
	s := tb.Snapshot(&d)
	snapped := frames(tb)
	dirty := minute(tb, d)
	s.Restore()
	if got, wantIn, wantFree := tb.Now(), 2, 3; inFlight(tb) != wantIn || free(tb) != wantFree {
		t.Fatalf("restored at %v with %d frames in flight and %d in the pool, want %d and %d", got, inFlight(tb), free(tb), wantIn, wantFree)
	}
	if got := frames(tb); !reflect.DeepEqual(got, snapped) {
		t.Fatalf("frames in flight after the restore\n  %+v\nat the snapshot\n  %+v", got, snapped)
	}
	got := minute(tb, d)

	freshTB, freshD := build()
	want := minute(freshTB, freshD)
	if got != want {
		t.Errorf("restored testbed's next minute\n  %+v\nfresh build's\n  %+v", got, want)
	}
	if got != dirty {
		t.Errorf("the minute after the restore\n  %+v\nis not the minute before it\n  %+v", got, dirty)
	}
	if okReplies := got.Apps[0][1] + got.Apps[1][1] + got.Apps[2][1]; okReplies < 600 {
		t.Errorf("only %d replies in the minute: the frames are not circulating", okReplies)
	}
}
