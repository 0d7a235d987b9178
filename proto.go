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
	return snap.Take(append([]any{tb}, extraRoots...)...)
}

// warmEvents is how many free events a prototype's kernel is snapshotted
// with: a one-device cell has about twenty pending at its busiest (2.5 KB).
const warmEvents = 32

// warmRules is how many reject rules a prototype is snapshotted with: a
// cell injects one or two.
const warmRules = 2

// warm fills the testbed's free lists (kernel events, signalling frames,
// decoded messages, hop records, the plugin's and the devices' own) ahead
// of a prototype snapshot. Pool contents are no part of a cell's
// behaviour: a restored cell finds them full where a fresh build would
// allocate as it goes.
func (tb *Testbed) warm() {
	tb.kern.Warm(warmEvents)
	tb.net.Warm()
	tb.plugin.Warm()
	tb.rules.Warm(warmRules)
	for _, d := range tb.devices {
		d.warm()
	}
}

// Reseed re-seeds the testbed's random stream in place. Cloned cells call
// it right after restore; fresh cells at the same post-boot point.
func (tb *Testbed) Reseed(seedVal int64) { tb.kern.Reseed(seedVal) }

// Proto is a booted-testbed prototype: boot describes how to take a brand
// new testbed to the steady state cells start from, and returns whatever
// handles (device, apps, taps) cells need. The root package's own cells all
// start from the prototype of a steady value (see trial.run). Booted
// instances wait on a mutex-guarded free list; each worker of a parallel
// sweep reuses one via restore-on-acquire, so a dirty or even panicked cell
// self-cleans on the next Cell. The garbage collector never drains the list
// (the runtime's own pool type is emptied every second GC cycle, which
// re-booted prototypes all through a sweep): a prototype boots once per
// concurrent cell per process, and the list holds at most the peak number
// of cells that ran on this prototype at the same time.
type Proto[T any] struct {
	boot func(tb *Testbed) T

	mu    sync.Mutex
	free  []*protoInst[T]
	stats ProtoStats
}

// ProtoStats counts how often a prototype paid the full boot and how
// often it served a cell by restoring a booted instance. Boots staying at
// the worker count over a whole sweep is the property the clone path
// depends on. BootMS and SnapshotMS are the wall time those boots took
// (their warm-up included) and the time taking their snapshots took:
// where creating a prototype goes. They are timings, and vary run to run.
type ProtoStats struct {
	Boots      int     `json:"proto_boots"`
	Restores   int     `json:"proto_restores"`
	BootMS     float64 `json:"boot_ms"`
	SnapshotMS float64 `json:"snapshot_ms"`
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

	start := time.Now()
	inst := &protoInst[T]{tb: New(protoBootSeed)}
	inst.h = p.boot(inst.tb)
	inst.tb.warm()
	booted := time.Now()
	inst.snap = inst.tb.Snapshot(&inst.h)
	took := time.Since(booted)
	p.mu.Lock()
	p.stats.BootMS += ms(booted.Sub(start))
	p.stats.SnapshotMS += ms(took)
	p.mu.Unlock()
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

// Stats returns the prototype's boot and restore counts and times so far.
func (p *Proto[T]) Stats() ProtoStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Cell acquires a booted instance, rewinds it to the boot snapshot,
// reseeds it for this cell, and returns the testbed, the boot handles,
// and a release func that must be called when the cell is done.
func (p *Proto[T]) Cell(cellSeed int64) (tb *Testbed, h T, put func()) {
	inst := p.cell(cellSeed)
	return inst.tb, inst.h, func() { p.release(inst) }
}

// cell is Cell without the release func: the caller hands the instance
// back with release.
func (p *Proto[T]) cell(cellSeed int64) *protoInst[T] {
	inst := p.acquire()
	inst.snap.Restore()
	inst.tb.Reseed(cellSeed)
	return inst
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

// statsWhere sums the stats of the prototypes whose key satisfies keep.
func (pm *ProtoMap[K, T]) statsWhere(keep func(K) bool) ProtoStats {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	var sum ProtoStats
	for k, p := range pm.m {
		if !keep(k) {
			continue
		}
		st := p.Stats()
		sum.Boots += st.Boots
		sum.Restores += st.Restores
		sum.BootMS += st.BootMS
		sum.SnapshotMS += st.SnapshotMS
	}
	return sum
}

// ---------------------------------------------------------------------------
// Steady states and trials: the one way the experiments run a cell
// ---------------------------------------------------------------------------

// steady is one steady state a cell starts from, as a comparable value:
// every prototype the experiments and replays restore is protos' prototype
// for one such value, booted by steady.boot.
type steady struct {
	family   protoFamily   // the PrototypeStats row the prototype counts under
	mode     Mode          // the device's failure-handling stack
	tuned    bool          // Android's recommended recovery-action timers
	apps     [3]AppKind    // installed in order (zero entries unused), started once connected
	warm     time.Duration // app traffic run after the apps start
	cells    int           // cell-graph size (0 is the single-gNB testbed)
	start    bool          // power on and wait for the data session
	staleDNN bool          // SIM and subscription on "internet2" before the start
}

// protoFamily groups steady states in PrototypeStats. A number, not a name:
// a pointer-free key keeps a trial's measure body off the heap.
type protoFamily uint8

const (
	familyBare protoFamily = iota
	familyCold
	familyDelivery
	familyFigure3
	familyLadder
	familyTable5
)

// bareSteady is one device of the given mode at connected steady state: the
// common prefix of the desync replays, the signalling-overhead arms, the
// stress runs and SEED's reset-time cells.
func bareSteady(mode Mode) steady { return steady{family: familyBare, mode: mode, start: true} }

// coldSteady is a built, never started device (on a cell graph of the given
// size, 0 for none): the state every cell whose measured window includes the
// boot begins from. Construction draws nothing from the kernel's random
// stream, so the snapshot reseeded with the cell's seed is New(seed) +
// NewDevice(mode).
func coldSteady(mode Mode, cells int) steady {
	return steady{family: familyCold, mode: mode, cells: cells}
}

// deliverySteady is the §7.1 delivery-replay steady state: recommended
// Android timers, the three-app traffic mix warmed for two minutes.
func deliverySteady(mode Mode) steady {
	return steady{family: familyDelivery, mode: mode, tuned: true,
		apps: [3]AppKind{AppVideo, AppWeb, AppEdgeAR}, warm: 2 * time.Minute, start: true}
}

// boot takes a brand new testbed to the steady state. A started boot runs
// under bootTracer, a pure observer, so the device carries its boot's
// decisions for a tracer attached after the restore.
func (st steady) boot(tb *Testbed) *Device {
	if st.cells > 0 {
		tb.EnableCells(st.cells, 0)
	}
	var opts []DeviceOption
	if st.tuned {
		opts = append(opts, WithAndroidRecommendedTimers())
	}
	if st.staleDNN {
		opts = append(opts, WithStaleDNN("internet2"))
	}
	d := tb.NewDevice(st.mode, opts...)
	for _, kind := range st.apps {
		if kind != 0 {
			d.AddApp(kind)
		}
	}
	if st.staleDNN {
		tb.MigrateSubscription(d, "internet2", false)
	}
	if !st.start {
		return d
	}
	tb.Observe(bootTracer{d})
	d.Start()
	connected := tb.await(d.Connected, connectDeadline)
	tb.Observe(nil)
	if !connected {
		return d
	}
	for _, a := range d.apps {
		a.Start()
	}
	if st.warm > 0 {
		tb.Advance(st.warm)
	}
	return d
}

// protos holds the prototype of every steady state a cell has started from.
var protos = NewProtoMap(func(st steady) func(*Testbed) *Device { return st.boot })

// trial is one cell of an experiment or replay: the steady state it starts
// from and the measure body that runs on it.
type trial[R any] struct {
	from    steady
	measure func(tb *Testbed, d *Device) R
}

// run is the one way to run a cell: restore a booted instance of the trial's
// steady state, reseed it with the cell's seed, measure on it, and hand the
// instance back (also when the measure panics).
func (t trial[R]) run(cellSeed int64) R {
	p := protos.Proto(t.from)
	inst := p.cell(cellSeed)
	defer p.release(inst)
	return t.measure(inst.tb, inst.h)
}

// ProtoFamilyStats is one prototype family's counts as seedbench -json
// reports them.
type ProtoFamilyStats struct {
	Family string `json:"family"`
	ProtoStats
}

// PrototypeStats returns the boot and restore counts and times of the
// prototypes the experiment runners and replays share, summed per family.
// Boots above the worker count mean a sweep re-booted prototypes.
func PrototypeStats() []ProtoFamilyStats {
	var out []ProtoFamilyStats
	for f, name := range []string{"bare", "cold", "delivery", "figure3", "ladder", "table5"} {
		out = append(out, ProtoFamilyStats{name, protos.statsWhere(func(st steady) bool { return st.family == protoFamily(f) })})
	}
	return out
}
