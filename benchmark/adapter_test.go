package main

import (
	"bytes"
	"testing"
)

// Same seed, same inputs, byte for byte; another seed, other inputs.
func TestFleetLoadIsAFunctionOfTheSeed(t *testing.T) {
	a, b, other := genFleetLoad(7, 300), genFleetLoad(7, 300), genFleetLoad(8, 300)
	if a.inputs != b.inputs || !bytes.Equal(a.expected, b.expected) {
		t.Error("fleet load generation is not deterministic for a seed")
	}
	if a.inputs == other.inputs || bytes.Equal(a.expected, other.expected) {
		t.Error("fleet load does not depend on the seed")
	}
	if len(a.expected) == 0 {
		t.Error("expected model is empty")
	}
	// Sealing starts from fresh envelopes every time, so a second daemon
	// lifetime sees the same bytes as the first.
	r1, err := a.seal()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := a.seal()
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1 {
		if !bytes.Equal(r1[i].upload, r2[i].upload) || !bytes.Equal(r1[i].report, r2[i].report) {
			t.Fatalf("device %d seals differently the second time", i)
		}
	}
}

func TestCorpusAndDeliveryInputsAreAFunctionOfTheSeed(t *testing.T) {
	a, infoA, err := newCorpus(7)
	if err != nil {
		t.Fatal(err)
	}
	b, infoB, err := newCorpus(7)
	if err != nil {
		t.Fatal(err)
	}
	other, _, err := newCorpus(8)
	if err != nil {
		t.Fatal(err)
	}
	if a.inputs != b.inputs || a.n != b.n || infoA.mixMAPE != infoB.mixMAPE {
		t.Error("corpus compilation is not deterministic for a seed")
	}
	if a.inputs == other.inputs {
		t.Error("corpus does not depend on the seed")
	}
	if infoA.mixMAPE <= 0 || infoA.mixMAPE > mixMAPELimit {
		t.Errorf("corpus cause-mix MAPE %v outside (0, %v]", infoA.mixMAPE, mixMAPELimit)
	}

	d1, err := newDelivery(7)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := newDelivery(7)
	if err != nil {
		t.Fatal(err)
	}
	if d1.inputs != d2.inputs {
		t.Error("delivery cells are not deterministic for a seed")
	}
	// Four kinds, each with the fixed counts of SEED-U, SEED-R and legacy cells.
	if want := 4 * (2*deliverySEEDPerKind + deliveryLegacyPerKind); d1.n != want {
		t.Errorf("delivery pass has %d cells, want %d", d1.n, want)
	}
	legacy := 0
	for i := 0; i < d1.n; i++ {
		if _, mode, _ := d1.label(i); mode == "Legacy" {
			legacy++
		}
	}
	if legacy != 4*deliveryLegacyPerKind {
		t.Errorf("delivery pass has %d legacy cells, want %d", legacy, 4*deliveryLegacyPerKind)
	}
}

// A cell run twice keeps the same outcome, and the reference check sees a
// changed one.
func TestCellReferenceCheck(t *testing.T) {
	cs, err := newDelivery(3)
	if err != nil {
		t.Fatal(err)
	}
	cs.n = 12 // the first cells of each kind are enough here
	if _, _, panicked := runPass(cs, 1); panicked != 0 {
		t.Fatalf("%d cells panicked", panicked)
	}
	ref := takeRef(cs)
	runPass(cs, 2)
	if bad := ref.differing(cs); bad != 0 {
		t.Errorf("%d cells differ between one and two workers", bad)
	}
	ref.hashes[5]++
	if bad := ref.differing(cs); bad != 1 {
		t.Errorf("reference check found %d differing cells, want 1", bad)
	}

	boom := &cellSet{n: 4, run: func(i int) {
		if i == 2 {
			panic("boom")
		}
	}, outcome: func(int) any { return 0 }}
	if _, _, panicked := runPass(boom, 1); panicked != 1 {
		t.Errorf("panicked = %d, want 1", panicked)
	}
}

func TestStripSuiteTiming(t *testing.T) {
	seq := "Table 4\n  row 1\n  [table4 regenerated in 12ms]\n\nFigure 2\n  [figure2 regenerated in 3ms]\n\n"
	par := "Table 4\n  row 1\n  [table4 regenerated in 9ms; sequential 13ms; speedup 1.42x @2 workers]\n\nFigure 2\n  [figure2 regenerated in 2ms; sequential 3ms; speedup 1.1x @2 workers]\n\ntotal wall-clock 11ms vs sequential 16ms: 1.40x speedup @2 workers\n"
	a, b := stripSuiteTiming([]byte(seq)), stripSuiteTiming([]byte(par))
	if !bytes.Equal(a, b) {
		t.Errorf("stripped outputs differ:\n%q\n%q", a, b)
	}
	if !bytes.Contains(a, []byte("row 1")) || bytes.Contains(a, []byte("regenerated")) {
		t.Errorf("stripped output wrong: %q", a)
	}
}

func TestProbeCellCountsRepeatExactly(t *testing.T) {
	a, _ := probeCellCounts(5)
	b, _ := probeCellCounts(5)
	if digest(a) != digest(b) {
		t.Error("probe cell counts differ between two runs at one seed")
	}
	for _, name := range []string{"modem.nas_sent_per_cell", "core5g.amf_msgs_per_cell", "netemu.frames_per_cell", "sim.auth_per_cell"} {
		if a[name] <= 0 {
			t.Errorf("%s = %v, want > 0", name, a[name])
		}
	}
	for name := range a {
		if _, ok := defsByName(perLayer)[name]; !ok {
			t.Errorf("probe cells report %q, which is not a per-layer metric", name)
		}
	}
}
