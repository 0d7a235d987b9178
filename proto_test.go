package seed

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/seed5g/seed/internal/core"
	"github.com/seed5g/seed/internal/runner"
	"github.com/seed5g/seed/internal/sched"
	"github.com/seed5g/seed/internal/workload"
)

// A booted prototype is the most expensive object a sweep owns (a
// delivery boot is ~100x a restore), so it must outlive the collector:
// these tests hold Proto to "boot once per concurrent cell per process".

func TestProtoSurvivesGC(t *testing.T) {
	p := protos.Proto(deliverySteady(ModeSEEDU))
	_, _, put := p.Cell(1)
	put()
	before := p.Stats()
	for i := 0; i < 3; i++ {
		runtime.GC() // a sync.Pool is empty after two cycles
	}
	_, d, put := p.Cell(2)
	defer put()
	if !d.Connected() {
		t.Fatal("restored cell not connected")
	}
	after := p.Stats()
	if after.Boots != before.Boots {
		t.Errorf("prototype re-booted after GC: boots %d -> %d", before.Boots, after.Boots)
	}
	if after.Restores != before.Restores+1 {
		t.Errorf("restores %d -> %d, want one more", before.Restores, after.Restores)
	}
}

func TestSweepBootsAtMostOnePrototypePerWorker(t *testing.T) {
	const workers, cells = 4, 200
	modes := []Mode{ModeLegacy, ModeSEEDU, ModeSEEDR}
	cases := GenerateDataset(1).Delivery()
	before := make([]ProtoStats, len(modes))
	for i, m := range modes {
		before[i] = protos.Proto(deliverySteady(m)).Stats()
	}
	runner.Map(runner.New(workers), cells, func(i int) DeliveryReplayResult {
		return ReplayDelivery(cases[i%len(cases)], modes[i%len(modes)], sched.DeriveSeed(1, uint64(i)))
	})
	for i, m := range modes {
		after := protos.Proto(deliverySteady(m)).Stats()
		if boots := after.Boots - before[i].Boots; boots > workers {
			t.Errorf("%v: %d prototype boots over the sweep, want at most %d (one per worker)", m, boots, workers)
		}
		if restores, want := after.Restores-before[i].Restores, (cells-i+len(modes)-1)/len(modes); restores != want {
			t.Errorf("%v: %d restores over the sweep, want one per cell (%d)", m, restores, want)
		}
	}
}

// The same free-list property for the family the corpus lives on: a sweep
// of mixed corpus cells (every scenario class, every mode, walks included)
// builds a cold prototype at most once per worker per key, and restores one
// for every cell that is not a desync.
func TestCorpusSweepBuildsAtMostOneColdPrototypePerWorker(t *testing.T) {
	const workers, cells = 4, 400
	sp := workload.DefaultSpec()
	corpus, err := workload.Compile(sp, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(corpus) < cells {
		t.Fatalf("corpus has %d cells, want at least %d", len(corpus), cells)
	}
	stride := len(corpus) / cells
	keys := map[steady]ProtoStats{}
	wantRestores := 0
	for i := 0; i < cells; i++ {
		c := corpus[i*stride]
		mode, _ := ParseMode(c.Mode)
		key := coldSteady(mode, 0)
		switch {
		case workload.MobilityScenario(c.Scenario):
			key = coldSteady(mode, sp.Cells.N)
		case c.Scenario == workload.ScenDesync:
			continue
		}
		keys[key] = protos.Proto(key).Stats()
		wantRestores++
	}
	if len(keys) < 4 {
		t.Fatalf("sample touches only %d cold prototypes: not a mixed sweep", len(keys))
	}
	runner.Map(runner.New(workers), cells, func(i int) workload.Outcome {
		c := corpus[i*stride]
		mode, _ := ParseMode(c.Mode)
		return RunWorkloadCell(sp, c, mode, nil)
	})
	restores := 0
	for key, before := range keys {
		after := protos.Proto(key).Stats()
		if boots := after.Boots - before.Boots; boots > workers {
			t.Errorf("%+v: %d prototypes built over the sweep, want at most %d (one per worker)", key, boots, workers)
		}
		restores += after.Restores - before.Restores
	}
	if restores != wantRestores {
		t.Errorf("%d cold restores over the sweep, want one per non-desync cell (%d)", restores, wantRestores)
	}
}

type panicTracer struct{}

func (panicTracer) Decision(core.DecisionEvent) { panic("tracer blew up mid-cell") }

// A cell that panics half-way still hands its instance back (dirty, timers
// queued, the panicking tracer removed by the release); the next Cell must
// restore it cleanly rather than build another.
func TestPanickedCellLeavesARestorableInstance(t *testing.T) {
	c := cellRun{controlPlane: true, code: 22, scenario: ScenarioTransient, heal: 4 * time.Second}
	p := protos.Proto(coldSteady(ModeSEEDR, 0))
	want := runCell(c, ModeSEEDR, 5)
	before := p.Stats()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("instrumented cell did not panic")
			}
		}()
		pc := c
		pc.inst = &Instrument{Tracer: panicTracer{}}
		runCell(pc, ModeSEEDR, 5)
	}()
	if got := runCell(c, ModeSEEDR, 5); !reflect.DeepEqual(got, want) {
		t.Errorf("cell after a panicked one: %+v, want %+v", got, want)
	}
	after := p.Stats()
	if after.Boots != before.Boots || after.Restores != before.Restores+2 {
		t.Errorf("boots %d -> %d, restores %d -> %d: want the panicked cell's instance reused", before.Boots, after.Boots, before.Restores, after.Restores)
	}
}

// TestObserverRemovedOnRelease: an observer belongs to the cell that installed
// it. The prototype's next cell — the same instance, restored — starts
// unobserved, and a started steady.boot, which observes itself to record its
// boot trace, leaves no observer behind on a fresh boot or a restored one.
func TestObserverRemovedOnRelease(t *testing.T) {
	p := NewProto(func(tb *Testbed) *Device { return tb.NewDevice(ModeSEEDR) })
	tb, _, put := p.Cell(1)
	tb.Observe(new(traceLog))
	put()
	again, _, put := p.Cell(2)
	if again != tb {
		t.Fatal("the second cell did not reuse the first one's instance")
	}
	if got := again.kern.Observer(); got != nil {
		t.Errorf("the next cell starts observed by the last one's %T", got)
	}
	put()

	for _, mode := range Modes {
		fresh, d := protos.Proto(bareSteady(mode)).Fresh(1)
		if got := fresh.kern.Observer(); got != nil {
			t.Errorf("%v: a fresh bare boot leaves %T observing", mode, got)
		}
		if mode != ModeLegacy && len(d.bootTrace) == 0 {
			t.Errorf("%v: the boot recorded no decision", mode)
		}
		restored, _, put := protos.Proto(bareSteady(mode)).Cell(1)
		if got := restored.kern.Observer(); got != nil {
			t.Errorf("%v: a restored bare cell starts observed by %T", mode, got)
		}
		put()
	}
}
