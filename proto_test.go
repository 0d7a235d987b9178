package seed

import (
	"runtime"
	"testing"

	"github.com/seed5g/seed/internal/runner"
	"github.com/seed5g/seed/internal/sched"
)

// A booted prototype is the most expensive object a sweep owns (a
// delivery boot is ~100x a restore), so it must outlive the collector:
// these tests hold Proto to "boot once per concurrent cell per process".

func TestProtoSurvivesGC(t *testing.T) {
	p := deliveryProtos.Proto(ModeSEEDU)
	_, _, put := p.Cell(1)
	put()
	before := p.Stats()
	for i := 0; i < 3; i++ {
		runtime.GC() // a sync.Pool is empty after two cycles
	}
	_, h, put := p.Cell(2)
	defer put()
	if !h.d.Connected() {
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
		before[i] = deliveryProtos.Proto(m).Stats()
	}
	runner.Map(runner.New(workers), cells, func(i int) DeliveryReplayResult {
		return ReplayDelivery(cases[i%len(cases)], modes[i%len(modes)], sched.DeriveSeed(1, uint64(i)))
	})
	for i, m := range modes {
		after := deliveryProtos.Proto(m).Stats()
		if boots := after.Boots - before[i].Boots; boots > workers {
			t.Errorf("%v: %d prototype boots over the sweep, want at most %d (one per worker)", m, boots, workers)
		}
		if restores, want := after.Restores-before[i].Restores, (cells-i+len(modes)-1)/len(modes); restores != want {
			t.Errorf("%v: %d restores over the sweep, want one per cell (%d)", m, restores, want)
		}
	}
}
