package seed

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/seed5g/seed/internal/modem"
	"github.com/seed5g/seed/internal/nas"
	"github.com/seed5g/seed/internal/radio"
	"github.com/seed5g/seed/internal/workload"
)

// The allocation guards of the control-plane fast path, beside
// TestNASPathAllocs (proto_bench_test.go): what the steady-state NAS
// exchange of a corpus cell — a rejected session request retried on T3580,
// and a re-registration after a modem reboot — still takes from the heap.

// TestLegacyRetryLoopAllocs: a legacy device whose cached DNN the network
// no longer knows retries its PDU session request every T3580 and is
// rejected every time — more than half of what a corpus pass does. One
// round (the request built, encoded, protected, carried over two links and
// two processing hops, verified, decoded and dispatched; the reject back
// the same way; the retry timer armed) takes nothing from the heap:
// messages are built in their sender's scratch and decoded into pooled
// structs, frames and hop records circulate, the DNNs are strings both
// codecs already hold.
func TestLegacyRetryLoopAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the binding run is the uninstrumented bench-smoke job")
	}
	tb, d, put := protos.Proto(coldSteady(ModeLegacy, 0)).Cell(1)
	defer put()
	tb.MigrateSubscription(d, "internet2", false)
	rejects := 0
	d.OnReject(func(controlPlane bool, code uint8) {
		if !controlPlane {
			rejects++
		}
	})
	d.Start()
	d.inner.Mon.Stop() // Android's probes are not part of the exchange
	if !tb.RunUntil(func() bool { return rejects == 1 }, time.Minute) {
		t.Fatal("the stale DNN was never rejected")
	}
	tb.Advance(modem.T3580 / 2) // measure from between two rounds
	// Attempts two to five of the modem's five (the sixth failure
	// reattaches, which is TestReregistrationAllocs' subject).
	const runs = 3
	before := tb.net.SMF.Stats().Rejects
	perRound := testing.AllocsPerRun(runs, func() { tb.Advance(modem.T3580) })
	if got := tb.net.SMF.Stats().Rejects - before; got != runs+1 || rejects != runs+2 {
		t.Fatalf("%d rejects sent and %d received over %d rounds, want one each per round", got, rejects-1, runs+1)
	}
	if perRound != 0 {
		t.Errorf("a T3580 retry round allocates %.0f objects, want 0", perRound)
	}
}

// reregistrationAllocBudget is the allocation count of a legacy modem's
// reboot back to a data session: power cycle, profile read, PLMN search,
// registration request, 5G-AKA, Security Mode, registration accept, PDU
// session establishment — nine messages, none of which costs an object.
// Measured 2 (a mean of 2.6, which AllocsPerRun rounds down), each of them
// state somebody keeps:
//
//	1    the expanded AES key schedule of the AKA's integrity key (about
//	     500 B): one per AKA, shared by the modem's and the AMF's
//	     security contexts; crypto/aes cannot re-key a block in place
//	1.6  the SMF's SessionCtx and the UPF's forwarding entry, one each per
//	     boot once the two warmed spares are used up: the network is not
//	     told of the power cycle, so it keeps the stranded session and
//	     neither object comes back to a free list
//
// The profile's lists, the RRC frames, the GUTI on both sides and the
// modem's Session cost nothing: the card hands back the lists it holds,
// the frames are boxed once, the AMF formats GUTIs ahead in Warm and the
// modem's decoder finds the AMF's string in the testbed's name ring, and
// sessions are recycled with the backing arrays of their DNS and TFT
// lists, which the accept copies into. Budget = measured + 2.
const reregistrationAllocBudget = 4

// TestReregistrationAllocs is the second steady-state exchange of a corpus
// cell: Android's last recovery rung restarts the modem up to eighteen
// times an hour of virtual time.
func TestReregistrationAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the binding run is the uninstrumented bench-smoke job")
	}
	tb, d, put := protos.Proto(bareSteady(ModeLegacy)).Cell(1)
	defer put()
	d.inner.Mon.Stop()
	mdm := d.inner.Mdm
	const runs = 5
	before, amfBefore := mdm.Stats(), tb.net.AMF.Stats()
	perBoot := testing.AllocsPerRun(runs, func() {
		d.Reboot()
		if !tb.RunUntil(d.Connected, connectDeadline) {
			t.Fatal("no data session after the reboot")
		}
		tb.Advance(time.Second) // the Registration Complete reaches the AMF
	})
	after, amfAfter := mdm.Stats(), tb.net.AMF.Stats()
	boots := runs + 1 // AllocsPerRun adds a warm-up run
	if r, a := after.Reboots-before.Reboots, amfAfter.AuthRounds-amfBefore.AuthRounds; r != boots || a != boots {
		t.Fatalf("%d reboots and %d AKA rounds over %d runs, want one each per run", r, a, boots)
	}
	if sent, rcvd := after.NASSent-before.NASSent, after.NASReceived-before.NASReceived; sent != 5*boots || rcvd != 4*boots {
		t.Fatalf("%d uplinks and %d downlinks over %d re-registrations, want 5 and 4 each", sent, rcvd, boots)
	}
	if perBoot > reregistrationAllocBudget {
		t.Errorf("a re-registration allocates %.0f objects, budget %d", perBoot, reregistrationAllocBudget)
	} else {
		t.Logf("re-registration: %.0f allocs (budget %d)", perBoot, reregistrationAllocBudget)
	}
}

// nasInFlight counts the signalling frames and decoded messages riding
// kernel events.
func nasInFlight(tb *Testbed) (frames, msgs int) {
	tb.kern.SnapshotRoots(func(root any) {
		switch v := root.(type) {
		case *radio.NAS:
			frames++
		case *nas.AuthenticationRequest:
			msgs++ // held by the modem for the SIM I/O latency
		default:
			// A hop record (unexported in core5g) carries a decoded uplink.
			if rv := reflect.ValueOf(v); rv.Kind() == reflect.Pointer && rv.Elem().Kind() == reflect.Struct {
				if f := rv.Elem().FieldByName("msg"); f.IsValid() && !f.IsNil() {
					msgs++
				}
			}
		}
	})
	return frames, msgs
}

func poolLen(pool any) int {
	return reflect.ValueOf(pool).Elem().FieldByName("free").Len()
}

// TestSharedNASPoolSnapshot is TestSharedFramePoolSnapshot for the
// signalling pools: the modem, the gNB and the AMF hold the testbed's one
// frame pool, they and the SMF its one message pool, so the snapshot
// engine reaches each along several paths and has to rewind it once,
// together with what was in flight. A testbed snapshotted in the middle of
// a registration — a frame on a link or a decoded message in a hop — run
// on and restored must live the same next minute as an identically built
// testbed that never was, and as it did itself before the restore.
func TestSharedNASPoolSnapshot(t *testing.T) {
	type state struct {
		Modem           modem.Stats
		AMFIn, AMFOut   int
		SMFIn           int
		Now             time.Duration
		Pending         int
		Frames, Msgs    int
		FreeFrames      int
		Registered, Up  bool
		Protected, Seen int
	}
	build := func() (*Testbed, *Device) {
		tb := New(7)
		d := tb.NewDevice(ModeSEEDR)
		d.Start()
		// Into the registration: until a frame and a decoded message are in
		// flight at the same instant (the AMF has forwarded one uplink to
		// its dispatch hop while the modem's next is still on the link).
		if !tb.RunUntil(func() bool {
			f, m := nasInFlight(tb)
			return f >= 1 && m >= 1
		}, connectDeadline) {
			t.Fatal("never a frame and a decoded message in flight at once")
		}
		tb.warm()
		return tb, d
	}
	minute := func(tb *Testbed, d *Device) state {
		tb.Advance(time.Minute)
		f, m := nasInFlight(tb)
		amf := tb.net.AMF.Stats()
		_, protected, verified := tb.net.AMF.SecurityActive(d.IMSI())
		return state{
			Modem: d.inner.Mdm.Stats(), AMFIn: amf.MessagesIn, AMFOut: amf.MessagesOut, SMFIn: tb.net.SMF.Stats().MessagesIn,
			Now: tb.Now(), Pending: tb.kern.Pending(), Frames: f, Msgs: m, FreeFrames: poolLen(tb.net.NASFrames),
			Registered: d.Registered(), Up: d.Connected(), Protected: protected, Seen: verified,
		}
	}

	tb, d := build()
	wantFrames, wantMsgs := nasInFlight(tb)
	wantFree := poolLen(tb.net.NASFrames)
	s := tb.Snapshot(&d)
	dirty := minute(tb, d)
	s.Restore()
	if f, m := nasInFlight(tb); f != wantFrames || m != wantMsgs || poolLen(tb.net.NASFrames) != wantFree {
		t.Fatalf("restored with %d frames and %d messages in flight and %d frames free, want %d, %d and %d",
			f, m, poolLen(tb.net.NASFrames), wantFrames, wantMsgs, wantFree)
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
	if !got.Up || got.Protected < 3 {
		t.Errorf("the registration the snapshot interrupted did not complete: %+v", got)
	}
}

// pooledObjects counts the kernel events, signalling frames and hop records
// a testbed owns, free or in use: a run that leaves the counts where they
// were allocated none.
func pooledObjects(tb *Testbed) (events, frames, hops int) {
	events = reflect.ValueOf(tb.kern).Elem().FieldByName("events").Len()
	inFlight, _ := nasInFlight(tb)
	frames = inFlight + poolLen(tb.net.NASFrames)
	for _, fn := range []any{tb.net.AMF, tb.net.SMF} {
		hops += reflect.ValueOf(fn).Elem().FieldByName("hops").FieldByName("free").Len()
	}
	tb.kern.SnapshotRoots(func(root any) {
		if rv := reflect.ValueOf(root); rv.Kind() == reflect.Pointer && rv.Elem().Kind() == reflect.Struct && rv.Elem().FieldByName("msg").IsValid() {
			hops++
		}
	})
	return events, frames, hops
}

// TestWarmPrototypePools: a prototype is snapshotted with its free lists
// filled (kernel events, signalling frames, decoded messages, hop records),
// so a restored cold cell's whole boot and first registration find every
// event, frame and hop record they need waiting and allocate none — where
// a list snapshotted empty is filled again, object by object, in every
// cell. The outcome is the fresh build's, which warms nothing: pool
// contents are no part of a cell's behaviour.
func TestWarmPrototypePools(t *testing.T) {
	key := coldSteady(ModeSEEDR, 0)
	run := func(tb *Testbed, d *Device) (time.Duration, modem.Stats, int) {
		d.Start()
		if !tb.RunUntil(d.Connected, connectDeadline) {
			t.Fatal("device did not connect")
		}
		tb.Advance(5 * time.Second)
		return tb.Now(), d.inner.Mdm.Stats(), tb.net.AMF.Stats().MessagesIn
	}
	tb, d, put := protos.Proto(key).Cell(3)
	defer put()

	events, frames, hops := pooledObjects(tb)
	if events < warmEvents || frames < 4 || hops < 4 {
		t.Errorf("restored cold cell has %d events, %d frames and %d hop records, want at least %d, 4 and 4", events, frames, hops, warmEvents)
	}
	at, ms, amfIn := run(tb, d)
	if e, f, h := pooledObjects(tb); e != events || f != frames || h != hops {
		t.Errorf("boot and registration took the testbed from %d events, %d frames and %d hop records to %d, %d and %d: the warmed pools did not cover them",
			events, frames, hops, e, f, h)
	}

	freshTB, freshD := protos.Proto(key).Fresh(3)
	if e, f, h := pooledObjects(freshTB); e != 0 || f != 0 || h != 0 {
		t.Errorf("a fresh build starts with %d events, %d frames and %d hop records pooled, want none", e, f, h)
	}
	if fAt, fMS, fIn := run(freshTB, freshD); at != fAt || ms != fMS || amfIn != fIn {
		t.Errorf("restored cold cell connected at %v (%+v, %d uplinks at the AMF), fresh build at %v (%+v, %d)", at, ms, amfIn, fAt, fMS, fIn)
	}
}

// Budgets of TestCorpusCellAllocs, the mean a corpus cell allocates: the
// measured value plus about a tenth. About a third of the bytes is the AES
// key schedule of each AKA (crypto/aes cannot re-key a block in place);
// the rest is what a cell's outcome and its diagnoses keep.
const (
	corpusCellAllocBudget = 12   // measured 10.7
	corpusCellBytesBudget = 1950 // measured 1754
)

// TestCorpusCellAllocs replays a fixed sample of the compiled paper-mix
// corpus (seed 1, the first cells of every plane, scenario and mode class)
// on warm prototypes and holds the mean objects and bytes a cell allocates
// to their budgets: a closure per event, a struct per session or a buffer
// per diagnosis shows up here as a collector cycle more per pass of the
// corpus.
func TestCorpusCellAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the binding run is the uninstrumented bench-smoke job")
	}
	sp := workload.DefaultSpec()
	cells, err := workload.Compile(sp, 1)
	if err != nil {
		t.Fatal(err)
	}
	const perClass = 3
	type class struct{ plane, scenario, mode string }
	taken := map[class]int{}
	var sample []workload.Cell
	var modes []Mode
	for _, c := range cells {
		k := class{c.Plane, c.Scenario, c.Mode}
		if taken[k] == perClass {
			continue
		}
		taken[k]++
		sample = append(sample, c)
		mode := ModeLegacy
		switch c.Mode {
		case "seed-u":
			mode = ModeSEEDU
		case "seed-r":
			mode = ModeSEEDR
		}
		modes = append(modes, mode)
	}
	pass := func() {
		for i, c := range sample {
			RunWorkloadCell(sp, c, modes[i], nil)
		}
	}
	pass() // boots the prototypes
	const passes = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range passes {
		pass()
	}
	runtime.ReadMemStats(&after)
	n := float64(passes * len(sample))
	objs := float64(after.Mallocs-before.Mallocs) / n
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / n
	if objs > corpusCellAllocBudget || bytes > corpusCellBytesBudget {
		t.Errorf("a corpus cell allocates %.1f objects and %.0f bytes (mean of %d cells in %d classes), budget %d and %d",
			objs, bytes, len(sample), len(taken), corpusCellAllocBudget, corpusCellBytesBudget)
	} else {
		t.Logf("corpus cell: %.1f objects, %.0f bytes (mean of %d cells in %d classes; budget %d, %d)",
			objs, bytes, len(sample), len(taken), corpusCellAllocBudget, corpusCellBytesBudget)
	}
}
