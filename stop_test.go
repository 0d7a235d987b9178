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

// bothLoops runs a cell twice from its steady state's prototype — its waits
// subscribed, as shipped, and then polled after every event with the detector
// counting what the subscription would have missed — and fails unless the two
// agree.
func bothLoops(t *testing.T, name string, from steady, cellSeed int64, body func(*Testbed, *Device) any) stopRun {
	t.Helper()
	var runs [2]stopRun
	missed := 0
	for i := range runs {
		tb, d, put := protos.Proto(from).Cell(cellSeed)
		if tb.missed != nil {
			t.Fatal("a restored prototype still has the detector armed: its subscribed run would be polled")
		}
		if i == 1 {
			tb.missed = func(time.Duration) { missed++ }
		}
		res := body(tb, d)
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

// cellsDeliverySteady is the delivery steady state on a three-cell testbed,
// so that a scripted handover has somewhere to go.
func cellsDeliverySteady(mode Mode) steady {
	st := deliverySteady(mode)
	st.cells = 3
	return st
}

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
					from := deliverySteady(mode)
					if mut == mutHandover {
						from = cellsDeliverySteady(mode)
					}
					name := fmt.Sprintf("%v/%v/mutation %d at %v", kind, mode, mut, at)
					run := bothLoops(t, name, from, cellSeed, func(tb *Testbed, d *Device) any {
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
						return replayDeliveryOn(tb, d, DeliveryCase{Kind: kind})
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
			bothLoops(t, name, run.from(mode), c.Seed, func(tb *Testbed, d *Device) any {
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

// observedRun is what an observed and an unobserved run of a cell must agree
// on: what the two loops agree on, how many transitions the kernel announced
// over the run, and the next value of its random stream.
type observedRun struct {
	stopRun
	Announced uint64
	NextDraw  int64
}

// observedRuns runs a trial three times — unobserved, under a decision
// recorder, and under a Timeline that takes all four kinds of event — and
// fails unless the three agree. It returns the timeline and the recorded
// decisions.
func observedRuns[R any](t *testing.T, name string, tr trial[R], cellSeed int64) ([]TimelineEvent, traceLog) {
	t.Helper()
	var events []TimelineEvent
	var decisions traceLog
	var runs [3]observedRun
	for i := range runs {
		tb, d, put := protos.Proto(tr.from).Cell(cellSeed)
		if got := tb.kern.Observer(); got != nil {
			t.Fatalf("%s: a restored cell starts observed by %T", name, got)
		}
		switch i {
		case 1:
			tb.Observe(&decisions)
		case 2:
			tb.Observe(Timeline{Now: tb.Now, Emit: func(ev TimelineEvent) { events = append(events, ev) }})
		}
		before := tb.kern.Announced()
		res := tr.measure(tb, d)
		runs[i] = observedRun{stopRun{res, tb.Now(), tb.kern.Scheduled()}, tb.kern.Announced() - before, tb.kern.Rand().Int63()}
		put()
	}
	for i, who := range []string{"a decision recorder", "a timeline"} {
		if !reflect.DeepEqual(runs[0], runs[i+1]) {
			t.Errorf("%s: unobserved %+v != observed by %s %+v", name, runs[0], who, runs[i+1])
		}
	}
	checkTimeline(t, name, events)
	return events, decisions
}

// checkTimeline fails on a timeline event of no known layer or text, or out
// of time order.
func checkTimeline(t *testing.T, name string, events []TimelineEvent) {
	t.Helper()
	for i, ev := range events {
		if ev.Layer == "?" || ev.Text == "" || (i > 0 && ev.At < events[i-1].At) {
			t.Errorf("%s: timeline event %d is %+v", name, i, ev)
		}
	}
}

// TestObservedOutcomeMatchesUnobserved: observing a cell changes nothing about
// it, whoever observes and whatever they take. Cells are a stride sample of
// the compiled paper-mix corpus and every delivery kind, in every mode.
func TestObservedOutcomeMatchesUnobserved(t *testing.T) {
	layers := map[string]int{}
	decisions := 0
	tally := func(events []TimelineEvent, log traceLog) {
		for _, ev := range events {
			layers[ev.Layer]++
		}
		decisions += len(log)
		if got := layerCount(events, "applet") + layerCount(events, "plugin"); got != len(log) {
			t.Errorf("the timeline shows %d decisions, the recorder took %d", got, len(log))
		}
	}
	for _, mode := range Modes {
		for _, kind := range []DeliveryFailureKind{DeliveryTCPBlock, DeliveryUDPBlock, DeliveryDNSOutage, DeliveryStalledGateway} {
			name := fmt.Sprintf("%v/%v", kind, mode)
			events, log := observedRuns(t, name, deliveryTrial(DeliveryCase{Kind: kind}, mode), 7)
			if len(events) == 0 {
				t.Errorf("%s: the timeline saw nothing", name)
			}
			tally(events, log)
		}
	}
	sp := workload.DefaultSpec()
	cells, err := workload.Compile(sp, 1)
	if err != nil {
		t.Fatal(err)
	}
	const sample = 90
	stride := len(cells) / sample
	for i := 0; i < sample; i++ {
		c := cells[i*stride]
		mode, ok := ParseMode(c.Mode)
		if !ok {
			t.Fatalf("cell %d: mode %q", c.Index, c.Mode)
		}
		run := compiledCellRun(sp, c, nil)
		name := fmt.Sprintf("cell %d (%s, %s)", c.Index, c.Scenario, c.Mode)
		tally(observedRuns(t, name, trial[ReplayResult]{run.from(mode), run.measure}, c.Seed))
	}
	// The watch path: a watched dataset cell reads what the unwatched one
	// does, and its timeline shows every decision an instrument's tracer
	// records on the same cell, boot decisions included.
	ds := GenerateDataset(1)
	for _, name := range watchNames() {
		for _, mode := range Modes {
			where := fmt.Sprintf("watched %s/%v", name, mode)
			quiet, err := ds.WatchCell(name, 0, mode, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			var events []TimelineEvent
			watched, _ := ds.WatchCell(name, 0, mode, 1, func(ev TimelineEvent) { events = append(events, ev) })
			if !reflect.DeepEqual(quiet, watched) {
				t.Errorf("%s: unwatched %+v != watched %+v", where, quiet, watched)
			}
			if len(events) == 0 {
				t.Errorf("%s: the timeline saw nothing", where)
			}
			checkTimeline(t, where, events)
			var log traceLog
			if quiet.Plane != "delivery" {
				c := caseCellRun(quiet.Failure)
				c.inst = &Instrument{Tracer: &log}
				runCell(c, mode, quiet.Seed)
				tally(events, log)
			}
		}
	}
	for _, layer := range []string{"modem", "nas", "sim", "applet", "plugin"} {
		if layers[layer] == 0 {
			t.Errorf("no timeline event from layer %q in any cell: %v", layer, layers)
		}
	}
	if decisions == 0 {
		t.Error("no decision recorded in any cell")
	}
}

func layerCount(events []TimelineEvent, layer string) (n int) {
	for _, ev := range events {
		if ev.Layer == layer {
			n++
		}
	}
	return n
}

// TestTestbedObserveRejectsNonObserver: a value that implements none of the
// observer interfaces would be held and never called; Observe refuses it and
// leaves the observer it had.
func TestTestbedObserveRejectsNonObserver(t *testing.T) {
	tb := New(1)
	log := new(traceLog)
	tb.Observe(log)
	for _, o := range []any{struct{}{}, "timeline", func(TimelineEvent) {}, traceLog{}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Observe(%T) did not panic", o)
				}
			}()
			tb.Observe(o)
		}()
		if tb.kern.Observer() != any(log) {
			t.Fatalf("a rejected Observe(%T) replaced the observer", o)
		}
	}
	tb.Observe(Timeline{Now: tb.Now, Emit: func(TimelineEvent) {}})
	tb.Observe(nil)
	if tb.kern.Observer() != nil {
		t.Error("Observe(nil) left an observer")
	}
}
