package seed

import (
	"sync"
	"time"

	"github.com/seed5g/seed/internal/snap"
)

// This file implements clone-from-prototype testbed boot. A full boot —
// registration, NAS handshakes, SIM crypto, app warm-up — dominates
// per-cell cost in every experiment sweep, yet every cell boots to the
// same steady state. A Proto boots that state once per retained instance,
// snapshots it (internal/snap + the kernel's hand-written snapshot), and
// hands each cell a restored copy in microseconds.
//
// Determinism contract: every boot — a prototype's, or Proto.Fresh, the
// test oracle — runs under the fixed protoBootSeed, and the cell's own seed
// enters only via Reseed at the exact same post-boot instant on both. A
// cloned cell and a fresh-booted cell are therefore bit-identical by
// construction; the equivalence tests in snapshot_equiv_test.go hold this
// to byte equality.

// protoBootSeed seeds the boot phase of every prototype and every
// equivalent fresh boot. Cells are differentiated afterwards by Reseed.
const protoBootSeed int64 = 0x5EEDB007

// Snapshot records the complete testbed state — kernel schedule, RNG,
// network, devices, apps, plugin/learner — plus any extra roots (e.g. a
// recorder wired into device taps). Restore on the returned snapshot
// rewinds everything in place.
func (tb *Testbed) Snapshot(extraRoots ...any) *snap.Snapshot {
	roots := make([]any, 0, 1+len(extraRoots))
	roots = append(roots, tb)
	roots = append(roots, extraRoots...)
	return snap.Take(roots...)
}

// warmEvents is how many free events a prototype's kernel is snapshotted
// with: a one-device cell has about twenty pending at its busiest (2.5 KB).
const warmEvents = 32

// warm fills the testbed's free lists (kernel events, signalling frames,
// decoded messages, hop records) ahead of a prototype snapshot. Pool
// contents are no part of a cell's behaviour: a restored cell finds them
// full where a fresh build would allocate as it goes.
func (tb *Testbed) warm() {
	tb.kern.Warm(warmEvents)
	tb.net.Warm()
}

// Reseed re-seeds the testbed's random stream in place. Cloned cells call
// it right after restore; fresh cells at the same post-boot point.
func (tb *Testbed) Reseed(seedVal int64) { tb.kern.Reseed(seedVal) }

// Proto is a booted-testbed prototype: boot describes how to take a brand
// new testbed to the steady state cells start from, and returns whatever
// handles (device, apps, taps) cells need. Booted instances wait on a
// mutex-guarded free list; each worker of a parallel sweep reuses one via
// restore-on-acquire, so a dirty or even panicked cell self-cleans on the
// next Cell. The garbage collector never drains the list (the runtime's
// own pool type is emptied every second GC cycle, which re-booted
// prototypes all through a sweep): a prototype boots once per concurrent
// cell per process, and the list holds at most the peak number of cells
// that ran on this prototype at the same time.
type Proto[T any] struct {
	boot func(tb *Testbed) T

	mu    sync.Mutex
	free  []*protoInst[T]
	stats ProtoStats
}

// ProtoStats counts how often a prototype paid the full boot and how
// often it served a cell by restoring a booted instance. Boots staying at
// the worker count over a whole sweep is the property the clone path
// depends on.
type ProtoStats struct {
	Boots    int `json:"proto_boots"`
	Restores int `json:"proto_restores"`
}

type protoInst[T any] struct {
	tb   *Testbed
	h    T
	snap *snap.Snapshot
}

// NewProto declares a prototype. boot must be deterministic and must
// follow the actor snapshot contract (DESIGN.md): state in reachable
// fields, closures capturing only pointers and immutables.
func NewProto[T any](boot func(tb *Testbed) T) *Proto[T] {
	return &Proto[T]{boot: boot}
}

// acquire pops a booted instance off the free list, booting a new one
// (outside the lock, so concurrent first cells boot in parallel) when the
// list is empty.
func (p *Proto[T]) acquire() *protoInst[T] {
	p.mu.Lock()
	p.stats.Restores++
	if n := len(p.free); n > 0 {
		inst := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return inst
	}
	p.stats.Boots++
	p.mu.Unlock()

	inst := &protoInst[T]{tb: New(protoBootSeed)}
	inst.h = p.boot(inst.tb)
	inst.tb.warm()
	inst.snap = inst.tb.Snapshot(&inst.h)
	return inst
}

// release hands the instance back without the observer its cell installed:
// an observer belongs to one cell, and the next one starts unobserved.
func (p *Proto[T]) release(inst *protoInst[T]) {
	inst.tb.Observe(nil)
	p.mu.Lock()
	p.free = append(p.free, inst)
	p.mu.Unlock()
}

// Stats returns the prototype's boot and restore counts so far.
func (p *Proto[T]) Stats() ProtoStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Cell acquires a booted instance, rewinds it to the boot snapshot,
// reseeds it for this cell, and returns the testbed, the boot handles,
// and a release func that must be called when the cell is done.
func (p *Proto[T]) Cell(cellSeed int64) (tb *Testbed, h T, put func()) {
	inst := p.acquire()
	inst.snap.Restore()
	inst.tb.Reseed(cellSeed)
	return inst.tb, inst.h, func() { p.release(inst) }
}

// Fresh runs the full boot from scratch under the same seed protocol as
// Cell (fixed boot seed, then Reseed). It is the oracle the clone-equals-
// fresh tests and the benchmark's fresh-boot probe compare Cell against;
// no cell runs on it.
func (p *Proto[T]) Fresh(cellSeed int64) (*Testbed, T) {
	tb := New(protoBootSeed)
	h := p.boot(tb)
	tb.Reseed(cellSeed)
	return tb, h
}

// ProtoMap lazily creates one Proto per key, for prototype families
// parameterized by mode/app/options (each combination boots its own
// steady state).
type ProtoMap[K comparable, T any] struct {
	mu   sync.Mutex
	m    map[K]*Proto[T]
	boot func(K) func(*Testbed) T
}

// NewProtoMap declares a prototype family; boot(k) returns the boot
// function for key k.
func NewProtoMap[K comparable, T any](boot func(K) func(*Testbed) T) *ProtoMap[K, T] {
	return &ProtoMap[K, T]{m: make(map[K]*Proto[T]), boot: boot}
}

// Proto returns (creating on first use) the prototype for key k.
func (pm *ProtoMap[K, T]) Proto(k K) *Proto[T] {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	p := pm.m[k]
	if p == nil {
		p = NewProto(pm.boot(k))
		pm.m[k] = p
	}
	return p
}

// Stats sums the boot and restore counts of every prototype in the family.
func (pm *ProtoMap[K, T]) Stats() ProtoStats {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	var sum ProtoStats
	for _, p := range pm.m {
		st := p.Stats()
		sum.Boots += st.Boots
		sum.Restores += st.Restores
	}
	return sum
}

// ---------------------------------------------------------------------------
// Shared prototype families used by the experiment runners
// ---------------------------------------------------------------------------

// bareProtos boots one device of the given mode to connected steady
// state — the common prefix of the desync replays, the signaling-overhead
// measurement, and the reset-time cells.
var bareProtos = NewProtoMap(func(mode Mode) func(*Testbed) *Device {
	return func(tb *Testbed) *Device {
		d := tb.NewDevice(mode)
		tb.Observe(bootTracer{d})
		d.Start()
		tb.await(d.Connected, connectDeadline)
		tb.Observe(nil)
		return d
	}
})

// coldKey selects a cold prototype: the device mode and, for mobility
// walks, the cell-graph size (0 is the single-gNB testbed), because the
// cell manager must exist before the device is built.
type coldKey struct {
	mode  Mode
	cells int
}

// coldProtos builds a testbed and its device and does NOT start it: the
// state every cell whose measured window includes the boot begins from.
// Construction draws nothing from the kernel's random stream, so the
// snapshot reseeded with the cell's seed is New(seed) + NewDevice(mode).
var coldProtos = NewProtoMap(func(k coldKey) func(*Testbed) *Device {
	return func(tb *Testbed) *Device {
		if k.cells > 0 {
			tb.EnableCells(k.cells, 0)
		}
		return tb.NewDevice(k.mode)
	}
})

// deliveryHandles are the boot products of a delivery-replay cell.
type deliveryHandles struct {
	d    *Device
	apps [3]*App // video, web, edge-AR
}

// deliveryProtos boots the §7.1 delivery-replay steady state: recommended
// Android timers, the three-app traffic mix warmed for two minutes.
var deliveryProtos = NewProtoMap(func(mode Mode) func(*Testbed) deliveryHandles {
	return func(tb *Testbed) deliveryHandles { return bootDelivery(tb, mode) }
})

func bootDelivery(tb *Testbed, mode Mode) deliveryHandles {
	d := tb.NewDevice(mode, WithAndroidRecommendedTimers())
	h := deliveryHandles{d: d}
	h.apps[0] = d.AddApp(AppVideo)
	h.apps[1] = d.AddApp(AppWeb)
	h.apps[2] = d.AddApp(AppEdgeAR)
	d.Start()
	if !tb.await(d.Connected, connectDeadline) {
		return h
	}
	for _, a := range h.apps {
		a.Start()
	}
	tb.Advance(2 * time.Minute) // steady state
	return h
}

// ProtoFamilyStats is one prototype family's counts as seedbench -json
// reports them.
type ProtoFamilyStats struct {
	Family string `json:"family"`
	ProtoStats
}

// PrototypeStats returns the boot and restore counts of the prototype
// families the experiment runners and replays share, summed per family.
// Boots above the worker count mean a sweep re-booted prototypes.
func PrototypeStats() []ProtoFamilyStats {
	return []ProtoFamilyStats{
		{"bare", bareProtos.Stats()},
		{"cold", coldProtos.Stats()},
		{"delivery", deliveryProtos.Stats()},
		{"figure3", figure3Proto.Stats()},
		{"ladder", ladderProtos.Stats()},
		{"table5", table5Protos.Stats()},
	}
}
