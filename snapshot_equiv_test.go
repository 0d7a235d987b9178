package seed

import (
	"fmt"
	"reflect"
	"testing"
	"time"

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

// TestSharedProtosCloneMatchesFresh holds the prototype families the
// experiments actually run on to clone-equals-fresh: the replay bodies of
// ReplayManagement's desync cells (bareProtos) and of ReplayDelivery
// (deliveryProtos, all four failure kinds) give deeply equal results on a
// restored prototype (Proto.Cell) and on the fresh-boot oracle
// (Proto.Fresh), for every mode and several cell seeds.
func TestSharedProtosCloneMatchesFresh(t *testing.T) {
	seeds := []int64{1, 42, 987654321}
	for _, mode := range Modes {
		t.Run("desync/"+mode.String(), func(t *testing.T) {
			p := bareProtos.Proto(mode)
			for _, cellSeed := range seeds {
				freshTB, freshD := p.Fresh(cellSeed)
				want := replayDesyncOn(freshTB, freshD)

				tb, d, put := p.Cell(cellSeed)
				got := replayDesyncOn(tb, d)
				put()

				if !reflect.DeepEqual(got, want) {
					t.Errorf("seed %d: cloned %+v != fresh %+v", cellSeed, got, want)
				}
			}
		})
		for _, kind := range []DeliveryFailureKind{DeliveryTCPBlock, DeliveryUDPBlock, DeliveryDNSOutage, DeliveryStalledGateway} {
			t.Run(kind.String()+"/"+mode.String(), func(t *testing.T) {
				p := deliveryProtos.Proto(mode)
				dc := DeliveryCase{Kind: kind}
				for _, cellSeed := range seeds {
					freshTB, freshH := p.Fresh(cellSeed)
					want := replayDeliveryOn(freshTB, freshH, dc)

					tb, h, put := p.Cell(cellSeed)
					got := replayDeliveryOn(tb, h, dc)
					put()

					if !reflect.DeepEqual(got, want) {
						t.Errorf("seed %d: cloned %+v != fresh %+v", cellSeed, got, want)
					}
				}
			})
		}
	}
}

// TestOnePathTwoVocabularies pins that the dataset-row and compiled-cell
// entry points are adapters onto one implementation: for one case of each
// scenario class and every mode, ReplayManagement equals RunWorkloadCell
// on the cell carrying the same failure and seed with no RF profile.
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
				want := workload.Outcome{
					Recovered: r.Recovered, Disruption: r.Disruption, UserNotified: r.UserNotified,
					Actions: r.Actions, Reboots: r.Reboots, Decisions: r.Decisions,
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("RunWorkloadCell %+v != ReplayManagement %+v", got, want)
				}
			})
		}
	}
}
