package seed

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/seed5g/seed/internal/core5g"
	"github.com/seed5g/seed/internal/nas"
	"github.com/seed5g/seed/internal/sched"
	"github.com/seed5g/seed/internal/workload"
)

// auditStops arms the missed-announcement detector on tb: every await on it
// reads its condition after every event, as the polled RunUntil does, and the
// test fails when a condition turned true across an event that announced
// nothing — a layer changed state a stop condition reads and told nobody.
func auditStops(t *testing.T, tb *Testbed) {
	t.Helper()
	tb.missed = func(at time.Duration) {
		t.Errorf("a stop condition turned true at %v across an event that announced no transition", at)
	}
}

// stopRun is what the subscribed and the polled loop must agree on: the
// cell's result, the virtual instant it ended at, and how many events the
// kernel had scheduled by then.
type stopRun struct {
	Result    any
	Now       time.Duration
	Scheduled uint64
}

// bothLoops runs a cell twice from its prototype — its waits subscribed, as
// shipped, and then polled after every event with the detector counting what
// the subscription would have missed — and fails unless the two agree.
func bothLoops[T any](t *testing.T, name string, p *Proto[T], cellSeed int64, body func(*Testbed, T) any) stopRun {
	t.Helper()
	var runs [2]stopRun
	missed := 0
	for i := range runs {
		tb, h, put := p.Cell(cellSeed)
		if tb.missed != nil {
			t.Fatal("a restored prototype still has the detector armed: its subscribed run would be polled")
		}
		if i == 1 {
			tb.missed = func(time.Duration) { missed++ }
		}
		res := body(tb, h)
		runs[i] = stopRun{res, tb.Now(), tb.kern.Scheduled()}
		put()
	}
	if !reflect.DeepEqual(runs[0], runs[1]) {
		t.Errorf("%s seed %d: subscribed %+v != polled %+v", name, cellSeed, runs[0], runs[1])
	}
	if missed != 0 {
		t.Errorf("%s seed %d: %d stop instants fell on an event that announced nothing", name, cellSeed, missed)
	}
	return runs[0]
}

// cellsDeliveryProtos is the delivery steady state on a three-cell testbed,
// so that a scripted handover has somewhere to go.
var cellsDeliveryProtos = NewProtoMap(func(mode Mode) func(*Testbed) deliveryHandles {
	return func(tb *Testbed) deliveryHandles {
		tb.EnableCells(3, 0)
		return bootDelivery(tb, mode)
	}
})

// The scripted mid-run mutations of TestSubscribedStopMatchesPolled.
const (
	mutNone = iota
	mutUnblock
	mutDNSBack
	mutSecondStall
	mutHandover
	mutPartition
	mutKinds
)

// TestSubscribedStopMatchesPolled is the stop instant as a property over
// generated cells: a wait that reads its condition only after an event that
// announced a transition returns the same result at the same virtual instant
// as one that reads it after every event. Delivery replays of every kind and
// mode, plain and with one scripted mutation drawn from the cell seed landing
// at a drawn instant; a stride sample of the compiled paper-mix corpus with
// duplicating and reordering radio links thrown in; and the deadline edge.
func TestSubscribedStopMatchesPolled(t *testing.T) {
	kinds := []DeliveryFailureKind{DeliveryTCPBlock, DeliveryUDPBlock, DeliveryDNSOutage, DeliveryStalledGateway}
	var drawn [mutKinds]int
	deadlineEnds := 0
	for _, mode := range Modes {
		// A mutation has to land inside the cell: SEED's end within seconds
		// of the onset, the legacy ones take a minute and more.
		window := 4 * time.Second
		if mode == ModeLegacy {
			window = 90 * time.Second
		}
		for _, kind := range kinds {
			for _, cellSeed := range []int64{1, 2, 3, 42, 987654321} {
				rng := sched.NewRand(sched.DeriveSeedN(cellSeed, 0x57, uint64(kind), uint64(mode)))
				for _, mut := range []int{mutNone, 1 + rng.Intn(mutKinds-1)} {
					at := time.Duration(rng.Int63n(int64(window)))
					drawn[mut]++
					p := deliveryProtos.Proto(mode)
					if mut == mutHandover {
						p = cellsDeliveryProtos.Proto(mode)
					}
					name := fmt.Sprintf("%v/%v/mutation %d at %v", kind, mode, mut, at)
					run := bothLoops(t, name, p, cellSeed, func(tb *Testbed, h deliveryHandles) any {
						d := h.d
						switch mut {
						case mutUnblock:
							tb.After(at, func() { tb.UnblockAll(d) })
						case mutDNSBack:
							tb.After(at, func() { tb.SetDNSOutage(false) })
						case mutSecondStall:
							tb.After(at, func() { tb.StallGateway(d) })
						case mutHandover:
							tb.After(at, func() { tb.Handover(d, 1, true) })
						case mutPartition:
							radio := d.inner.Radio
							tb.armRFWindow(at.Seconds(), 20, func() { radio.SetDown(true) }, func() { radio.SetDown(false) })
						}
						return replayDeliveryOn(tb, h, DeliveryCase{Kind: kind})
					})
					if res := run.Result.(DeliveryReplayResult); res.Detected && !res.Recovered {
						deadlineEnds++ // the recovery wait ran into its deadline
					}
				}
			}
		}
	}
	for mut, n := range drawn {
		if n == 0 {
			t.Errorf("mutation %d was never drawn", mut)
		}
	}
	if deadlineEnds == 0 {
		t.Error("no delivery cell ended on its deadline")
	}

	t.Run("corpus", func(t *testing.T) {
		sp := workload.DefaultSpec()
		cells, err := workload.Compile(sp, 1)
		if err != nil {
			t.Fatal(err)
		}
		const sample = 220
		stride := len(cells) / sample
		scenarios := map[string]int{}
		for i := 0; i < sample; i++ {
			c := cells[i*stride]
			mode, ok := ParseMode(c.Mode)
			if !ok {
				t.Fatalf("cell %d: mode %q", c.Index, c.Mode)
			}
			scenarios[c.Scenario]++
			run := compiledCellRun(sp, c, nil)
			name := fmt.Sprintf("cell %d (%s, %s)", c.Index, c.Scenario, c.Mode)
			bothLoops(t, name, run.proto(mode), c.Seed, func(tb *Testbed, d *Device) any {
				switch i % 4 {
				case 1:
					d.inner.Radio.SetDup(0.2)
				case 3:
					d.inner.Radio.SetReorder(0.2, 0)
				}
				return run.measure(tb, d)
			})
		}
		for _, scen := range []string{workload.ScenDesync, workload.ScenHandoverDesync, workload.ScenTAURace} {
			if scenarios[scen] == 0 {
				t.Errorf("the sample holds no %s cell", scen)
			}
		}
	})

	// The deadline edge: an event past the deadline still runs when the clock
	// was short of it, and the condition is read once more on the way out —
	// so a transition on that very event satisfies the wait, late.
	t.Run("deadline edge", func(t *testing.T) {
		for _, polled := range []bool{false, true} {
			tb := New(1)
			if polled {
				auditStops(t, tb)
			}
			tb.After(10*time.Second, func() { tb.net.UPF.AddBlock("", core5g.PolicyBlock{Proto: nas.ProtoTCP}) })
			blocked := func() bool { return tb.net.UPF.HasBlock("nobody", nas.ProtoTCP) }
			if got := tb.await(blocked, 5*time.Second); !got || tb.Now() != 10*time.Second {
				t.Errorf("polled %v: await = %v at %v, want true at 10s", polled, got, tb.Now())
			}
			// Nothing left to run: the wait ends where it is, unsatisfied.
			if got := tb.awaitAfter(tb.Now(), blocked, time.Minute); got || tb.Now() != 10*time.Second {
				t.Errorf("polled %v: awaitAfter on an empty queue = %v at %v, want false at 10s", polled, got, tb.Now())
			}
		}
	})
}

// TestMissedAnnouncementIsDetected: the detector does fire. A condition over
// state nobody announces (the clock) turns true on an ordinary event; the
// subscribed wait sleeps through it until its deadline, the audited one
// returns at the polled instant and reports the miss.
func TestMissedAnnouncementIsDetected(t *testing.T) {
	late := func(tb *Testbed) func() bool {
		for i := 1; i <= 10; i++ {
			tb.After(time.Duration(i)*time.Second, func() {})
		}
		return func() bool { return tb.Now() >= 3*time.Second }
	}
	tb := New(1)
	if !tb.await(late(tb), 8*time.Second) || tb.Now() != 8*time.Second {
		t.Errorf("unaudited wait ended at %v, want its deadline", tb.Now())
	}
	tb = New(1)
	var missedAt []time.Duration
	tb.missed = func(at time.Duration) { missedAt = append(missedAt, at) }
	if !tb.await(late(tb), 8*time.Second) || tb.Now() != 3*time.Second {
		t.Errorf("audited wait ended at %v, want the polled instant 3s", tb.Now())
	}
	if len(missedAt) != 1 || missedAt[0] != 3*time.Second {
		t.Errorf("detector reported %v, want one miss at 3s", missedAt)
	}
}

// TestTimelineIsPureObserver: watching a cell's transitions changes nothing
// about it — outcome, final virtual time and the kernel's sequence counter
// are those of the unwatched run, for every delivery kind and mode.
func TestTimelineIsPureObserver(t *testing.T) {
	for _, mode := range Modes {
		for _, kind := range []DeliveryFailureKind{DeliveryTCPBlock, DeliveryUDPBlock, DeliveryDNSOutage, DeliveryStalledGateway} {
			var runs [2]stopRun
			var seen []TimelineEvent
			for i := range runs {
				tb, h, put := deliveryProtos.Proto(mode).Cell(7)
				if i == 1 {
					tb.OnTransition(func(ev TimelineEvent) { seen = append(seen, ev) })
				}
				res := replayDeliveryOn(tb, h, DeliveryCase{Kind: kind})
				runs[i] = stopRun{res, tb.Now(), tb.kern.Scheduled()}
				tb.OnTransition(nil)
				put()
			}
			if !reflect.DeepEqual(runs[0], runs[1]) {
				t.Errorf("%v/%v: unwatched %+v != watched %+v", kind, mode, runs[0], runs[1])
			}
			if len(seen) == 0 {
				t.Errorf("%v/%v: the watcher saw no transition", kind, mode)
			}
			for i, ev := range seen {
				if ev.Layer == "?" || ev.Text == "" || (i > 0 && ev.At < seen[i-1].At) {
					t.Errorf("%v/%v: event %d is %+v", kind, mode, i, ev)
				}
			}
		}
	}
}
