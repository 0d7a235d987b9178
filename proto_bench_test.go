package seed

import (
	"runtime"
	"testing"
	"time"
)

// The benchmarks and guards in this file hold the clone-from-prototype
// machinery to its acceptance bar: a cloned cell must cost at most 10%
// of a fresh full boot, in both nanoseconds and allocations, and the
// cloned-cell allocation count is pinned so regressions fail CI the way
// the kernel and crypto hot-path guards do.

// clonedCellAllocBudget pins the per-cell allocation count of the cloned
// path (restore + reseed). Restore walks the snapshot regions in place
// and only the dirty ones are rewritten. Measured: 1 for the bare SEED-R
// prototype and for the delivery prototype, the release func Cell hands
// back. Raise this only with a profile in hand showing why.
const clonedCellAllocBudget = 3

// coldCellAllocBudget is the same pin for the cold family, the one every
// corpus cell but the desyncs pays: measured 1 for a SEED-R device on a
// single gNB and on a three-cell graph (the release func); budget =
// measured + 2. The construction it replaces allocated 145.
const coldCellAllocBudget = 3

// BenchmarkFreshBootCell is the baseline arm: a full testbed boot to
// connected steady state under the prototype seed protocol, the per-cell
// cost every sweep paid before snapshots.
func BenchmarkFreshBootCell(b *testing.B) {
	p := protos.Proto(bareSteady(ModeSEEDR))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, d := p.Fresh(int64(i + 1))
		if !d.Connected() {
			b.Fatal("fresh boot did not connect")
		}
	}
}

// BenchmarkClonedCell is the snapshot arm: acquire the pooled booted
// prototype, restore it to the boot snapshot, and reseed for the cell.
func BenchmarkClonedCell(b *testing.B) {
	p := protos.Proto(bareSteady(ModeSEEDR))
	// Boot the pooled prototype outside the timed region.
	_, _, put := p.Cell(1)
	put()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, d, put := p.Cell(int64(i + 1))
		if !d.Connected() {
			b.Fatal("cloned cell not connected")
		}
		put()
	}
}

// TestClonedCellAllocs pins the cloned path's allocation count for both
// shared prototype families. The bare prototype is the tightest case:
// its boot is itself only a few hundred allocations, so any restore
// regression shows up immediately.
func TestClonedCellAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the binding run is the uninstrumented bench-smoke job")
	}
	cells := []struct {
		name   string
		allocs func() float64
	}{
		{"bare", func() float64 {
			p := protos.Proto(bareSteady(ModeSEEDR))
			_, _, put := p.Cell(1)
			put()
			return testing.AllocsPerRun(50, func() {
				_, d, put := p.Cell(7)
				if !d.Connected() {
					t.Fatal("cloned cell not connected")
				}
				put()
			})
		}},
		{"delivery", func() float64 {
			p := protos.Proto(deliverySteady(ModeSEEDR))
			_, _, put := p.Cell(1)
			put()
			return testing.AllocsPerRun(20, func() {
				_, d, put := p.Cell(7)
				if !d.Connected() {
					t.Fatal("cloned cell not connected")
				}
				put()
			})
		}},
	}
	for _, pc := range cells {
		if avg := pc.allocs(); avg > clonedCellAllocBudget {
			t.Errorf("%s cloned cell allocates %.0f objects, budget %d", pc.name, avg, clonedCellAllocBudget)
		} else {
			t.Logf("%s cloned cell: %.0f allocs (budget %d)", pc.name, avg, clonedCellAllocBudget)
		}
	}
	for _, key := range []steady{coldSteady(ModeSEEDR, 0), coldSteady(ModeSEEDR, 3)} {
		p := protos.Proto(key)
		_, _, put := p.Cell(1)
		put()
		avg := testing.AllocsPerRun(50, func() {
			_, d, put := p.Cell(7)
			if d.Connected() {
				t.Fatal("cold cell already connected")
			}
			put()
		})
		if avg > coldCellAllocBudget {
			t.Errorf("cold cell %+v allocates %.0f objects, budget %d", key, avg, coldCellAllocBudget)
		} else {
			t.Logf("cold cell %+v: %.0f allocs (budget %d)", key, avg, coldCellAllocBudget)
		}
	}
}

// TestClonedCellAllocsWithinTenPercentOfFreshBoot: cloning the delivery
// prototype — the steady state every ReplayDelivery cell starts from (boot,
// three apps, two simulated minutes of warm traffic) — must allocate at most
// 10% of what the fresh boot it replaces does (measured: under 1%). The
// counts repeat exactly; what the two cost in time is the benchmark's
// proto.restore_us and proto.fresh_us.
func TestClonedCellAllocsWithinTenPercentOfFreshBoot(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the binding run is the uninstrumented bench-smoke job")
	}
	p := protos.Proto(deliverySteady(ModeSEEDR))
	_, _, put := p.Cell(1)
	put()

	cloneAllocs := testing.AllocsPerRun(20, func() {
		_, d, put := p.Cell(7)
		if !d.Connected() {
			t.Fatal("cloned cell not connected")
		}
		put()
	})
	freshAllocs := testing.AllocsPerRun(3, func() {
		_, d := p.Fresh(7)
		if !d.Connected() {
			t.Fatal("fresh boot did not connect")
		}
	})
	if cloneAllocs > freshAllocs/10 {
		t.Errorf("cloned cell allocates %.0f objects, more than 10%% of a fresh boot's %.0f", cloneAllocs, freshAllocs)
	}
	t.Logf("cloned cell: %.0f allocs; fresh boot: %.0f allocs (%.2f%%)",
		cloneAllocs, freshAllocs, 100*cloneAllocs/freshAllocs)
}

// BenchmarkFreshDeliveryBoot and BenchmarkClonedDeliveryCell are the two
// arms of the cell-cost comparison on the heavier delivery prototype (the
// benchmark's proto.fresh_us and proto.restore_us measure the same pair).
func BenchmarkFreshDeliveryBoot(b *testing.B) {
	p := protos.Proto(deliverySteady(ModeSEEDR))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, d := p.Fresh(int64(i + 1))
		if !d.Connected() {
			b.Fatal("fresh boot did not connect")
		}
	}
}

func BenchmarkClonedDeliveryCell(b *testing.B) {
	p := protos.Proto(deliverySteady(ModeSEEDR))
	_, _, put := p.Cell(1)
	put()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, d, put := p.Cell(int64(i + 1))
		if !d.Connected() {
			b.Fatal("cloned cell not connected")
		}
		put()
	}
}

// takeSteadies are the steady states BenchmarkPrototypeTake records: the
// bare and cold families most management cells restore, the delivery
// replays' warmed three-app state, and a Table 5 single-app state.
var takeSteadies = []struct {
	name string
	st   steady
}{
	{"bare", bareSteady(ModeSEEDU)},
	{"cold", coldSteady(ModeLegacy, 0)},
	{"delivery", deliverySteady(ModeSEEDR)},
	{"table5", steady{family: familyTable5, mode: ModeSEEDU, tuned: true, apps: [3]AppKind{AppVideo}, warm: 90 * time.Second, start: true}},
}

// bootForTake takes a new testbed to st as Proto.acquire does before it
// records the snapshot: boot, then warm the free lists.
func bootForTake(st steady) (*Testbed, *Device) {
	tb := New(protoBootSeed)
	d := st.boot(tb)
	tb.warm()
	return tb, d
}

// BenchmarkPrototypeTake is the cost of recording one booted prototype,
// which every prototype boot pays once.
func BenchmarkPrototypeTake(b *testing.B) {
	for _, c := range takeSteadies {
		b.Run(c.name, func(b *testing.B) {
			tb, d := bootForTake(c.st)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tb.Snapshot(&d)
			}
		})
	}
}

// TestPrototypeSnapshotRegions pins the regions a prototype's snapshot
// records (objects, slice backings, maps, self-snapshotting types): how
// Take walks the graph may change, what it finds may not.
func TestPrototypeSnapshotRegions(t *testing.T) {
	want := map[string][4]int{
		"bare":     {87, 51, 23, 1},
		"cold":     {66, 37, 20, 1},
		"delivery": {103, 58, 23, 1},
		"table5":   {91, 54, 23, 1},
	}
	for _, c := range takeSteadies {
		tb, d := bootForTake(c.st)
		var got [4]int
		got[0], got[1], got[2], got[3] = tb.Snapshot(&d).Regions()
		if got != want[c.name] {
			t.Errorf("%s: snapshot records %v regions (objects, slices, maps, snapshotters), want %v", c.name, got, want[c.name])
		}
	}
}

// takeAllocBudget and takeBytesBudget bound one Take of the bare steady
// state at half of what the reflective walker it replaced allocated (378
// objects, 91 203 bytes). Measured: 133 objects, 39 190 bytes, most of
// them the masters themselves and the walk's 256-slot dedupe set.
const (
	takeAllocBudget = 189
	takeBytesBudget = 45_601
)

// TestPrototypeTakeAllocs holds one Take of the bare steady state to
// takeAllocBudget objects and takeBytesBudget bytes.
func TestPrototypeTakeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the binding run is the uninstrumented bench-smoke job")
	}
	tb, d := bootForTake(bareSteady(ModeSEEDU))
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, func() { tb.Snapshot(&d) })
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1) // AllocsPerRun adds a warm-up run
	if allocs > takeAllocBudget || bytes > takeBytesBudget {
		t.Errorf("one Take allocates %.0f objects and %.0f bytes, budget %d and %d", allocs, bytes, takeAllocBudget, takeBytesBudget)
	} else {
		t.Logf("one Take: %.0f objects, %.0f bytes (budget %d, %d)", allocs, bytes, takeAllocBudget, takeBytesBudget)
	}
}

// BenchmarkDevicesCopy measures the copying accessor.
func BenchmarkDevicesCopy(b *testing.B) {
	tb := New(1)
	for i := 0; i < 16; i++ {
		tb.NewDevice(ModeLegacy)
	}
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		for _, d := range tb.Devices() {
			if d != nil {
				n++
			}
		}
	}
	_ = n
}

// packetPathAllocBudget is the allocation count of one app request →
// response round trip (app, modem, radio link, gNB, backhaul, UPF,
// internet and back) in steady state: nothing. The flow is an integer tag,
// the request is built in the app's scratch and copied once, into the one
// pooled frame that carries it out and, turned around, its reply back; the
// request record is pooled, the timers are pooled events. (The one string
// the path still builds, the "dns-answer:" prefix on a DNS reply, comes
// once per hundred seconds of this traffic.)
const packetPathAllocBudget = 0

// TestPacketPathAllocs extends the allocation guards to the user plane:
// on a connected SEED-R delivery prototype with its three apps warm, a
// simulated second of traffic may allocate at most packetPathAllocBudget
// objects per request.
func TestPacketPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the binding run is the uninstrumented bench-smoke job")
	}
	tb, d, put := protos.Proto(deliverySteady(ModeSEEDR)).Cell(1)
	defer put()
	if !d.Connected() {
		t.Fatal("cloned cell not connected")
	}
	requests := func() (n int) {
		for _, a := range d.apps {
			sent, _, _, _ := a.Requests()
			n += sent
		}
		return n
	}
	tb.Advance(10 * time.Second) // frame pools and request records fill
	const runs = 20
	before := requests()
	perSecond := testing.AllocsPerRun(runs, func() { tb.Advance(time.Second) })
	perSecondRequests := float64(requests()-before) / (runs + 1) // AllocsPerRun adds a warm-up run
	if perSecondRequests < 10 {
		t.Fatalf("only %.1f requests per simulated second: the apps are not generating traffic", perSecondRequests)
	}
	if perRequest := perSecond / perSecondRequests; perRequest > packetPathAllocBudget {
		t.Errorf("request round trip allocates %.2f objects, budget %d", perRequest, packetPathAllocBudget)
	} else {
		t.Logf("request round trip: %.2f allocs over %.1f requests/s (budget %d)", perRequest, perSecondRequests, packetPathAllocBudget)
	}
}

// TestBlockedPathAllocs is TestPacketPathAllocs for the other regime of
// the user plane, the one most of a delivery replay is spent in: under a
// TCP block the traffic is uplink only — requests leave, the UPF drops
// them, deadlines fire — so frames travel modem → gNB and never come back.
// With one pool per testbed that costs no allocation either. The device's
// reactions (Android's ladder, SEED's report path) are detached: they
// would lift the block within seconds, and allocate doing it.
func TestBlockedPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the binding run is the uninstrumented bench-smoke job")
	}
	tb, d, put := protos.Proto(deliverySteady(ModeSEEDR)).Cell(1)
	defer put()
	if !d.Connected() {
		t.Fatal("cloned cell not connected")
	}
	d.inner.Mon.Stop()
	for _, a := range d.apps {
		a.inner.AttachMonitor(nil)
		a.inner.AttachReporter(nil)
	}
	tb.BlockTCP(d)
	stats := func() (requests, dropped int) {
		for _, a := range d.apps {
			sent, _, _, _ := a.Requests()
			requests += sent
		}
		return requests, tb.net.UPF.Stats().DroppedPolicy
	}
	tb.Advance(10 * time.Second) // the pool and the request records fill
	const runs = 60
	reqBefore, dropBefore := stats()
	perSecond := testing.AllocsPerRun(runs, func() { tb.Advance(time.Second) })
	reqAfter, dropAfter := stats()
	if dropAfter-dropBefore < runs {
		t.Fatalf("UPF dropped %d packets over a simulated minute: the block is not in force", dropAfter-dropBefore)
	}
	requests := float64(reqAfter-reqBefore) / (runs + 1) // AllocsPerRun adds a warm-up run
	if perRequest := perSecond / requests; perRequest > packetPathAllocBudget {
		t.Errorf("request into a block allocates %.2f objects, budget %d", perRequest, packetPathAllocBudget)
	} else {
		t.Logf("request into a block: %.2f allocs over %.1f requests/s (budget %d)", perRequest, requests, packetPathAllocBudget)
	}
}

// nasPathAllocBudget is the allocation count of one protected signalling
// round trip on a connected device — a PDU Session Modification Request up
// (modem, radio link, gNB, backhaul, AMF, SMF), the command down under the
// AMF's security context, and the modem's Complete up again: three encoded,
// protected, verified and decoded messages over eight hops. Measured 0 (37
// before signalling frames were pooled, 14 while every message was still an
// object as built and again as decoded): the three are built in their
// senders' scratch and decoded into pooled structs whose TFT, QoS and DNS
// parts are reused with them, the session copies what it keeps into the
// lists it has, and the UPF re-installs the session in the entry it has.
// Budget = measured + 1.
const nasPathAllocBudget = 1

// TestNASPathAllocs is TestPacketPathAllocs for the control plane.
func TestNASPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the binding run is the uninstrumented bench-smoke job")
	}
	tb, d, put := protos.Proto(bareSteady(ModeSEEDR)).Cell(1)
	defer put()
	mdm := d.inner.Mdm
	s, okS := mdm.FirstActiveSession()
	if !okS {
		t.Fatal("cloned cell has no session")
	}
	tb.Advance(5 * time.Second)
	const runs = 50
	before, amfBefore := mdm.Stats(), tb.net.AMF.Stats()
	perTrip := testing.AllocsPerRun(runs, func() {
		if !mdm.RequestModification(s.ID) {
			t.Fatal("modification refused")
		}
		tb.Advance(100 * time.Millisecond)
	})
	after, amfAfter := mdm.Stats(), tb.net.AMF.Stats()
	trips := runs + 1 // AllocsPerRun adds a warm-up run
	if sent, rcvd := after.NASSent-before.NASSent, after.NASReceived-before.NASReceived; sent != 2*trips || rcvd != trips {
		t.Fatalf("%d uplinks and %d downlinks over %d round trips, want 2 and 1 each", sent, rcvd, trips)
	}
	if in := amfAfter.MessagesIn - amfBefore.MessagesIn; in != 2*trips {
		t.Fatalf("AMF saw %d uplinks over %d round trips, want 2 each", in, trips)
	}
	if perTrip > nasPathAllocBudget {
		t.Errorf("signalling round trip allocates %.0f objects, budget %d", perTrip, nasPathAllocBudget)
	} else {
		t.Logf("signalling round trip: %.0f allocs (budget %d)", perTrip, nasPathAllocBudget)
	}
}
