package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strconv"
	"time"
)

// mixMAPELimit is the gate on the corpus's cause-mix error against the
// paper's Table 1: a faster simulator of the wrong mix is not a result.
const mixMAPELimit = 0.10

// runCtx is what a workload needs from the run it is part of.
type runCtx struct {
	tmpBase string // where temporary directories go (on the checkout's disk)
	tools   tools
	seed    int64
	seconds float64
	n       int     // N: workers, shards, connections at "wN"
	tr      *tracer // nil on the untraced run
	res     *result
}

func (c *runCtx) measureFor(share float64) budget {
	return newBudget(time.Duration(c.seconds * share * float64(time.Second)))
}

// cellRef holds pass 1's outcome of every cell, as a 64-bit hash of its
// canonical JSON, and the digest over all of them.
type cellRef struct {
	hashes []uint64
	digest string
}

func outcomeJSON(cs *cellSet, i int) []byte {
	b, err := json.Marshal(cs.outcome(i))
	if err != nil {
		panic("benchmark: cell outcome is not JSON: " + err.Error())
	}
	return b
}

func hash64(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

func takeRef(cs *cellSet) cellRef {
	ref := cellRef{hashes: make([]uint64, cs.n)}
	var all []byte
	for i := 0; i < cs.n; i++ {
		b := outcomeJSON(cs, i)
		ref.hashes[i] = hash64(b)
		all = append(append(all, b...), '\n')
	}
	ref.digest = digestBytes(all)
	return ref
}

// differing counts the cells whose kept outcome is not pass 1's.
func (ref cellRef) differing(cs *cellSet) int {
	bad := 0
	for i := 0; i < cs.n; i++ {
		if hash64(outcomeJSON(cs, i)) != ref.hashes[i] {
			bad++
		}
	}
	return bad
}

// runPass fans the cells over workers goroutines through the program's
// runner, timing the whole and each cell, and counts the cells that
// panicked.
func runPass(cs *cellSet, workers int) (s sample, rt rtDelta, panicked int) {
	bad := make([]bool, cs.n)
	s.ops, s.width = make([]float64, cs.n), workers
	cpu0 := selfCPU()
	rt0 := readRuntime()
	start := time.Now()
	runCells(workers, cs.n, func(i int) {
		t := time.Now()
		defer func() {
			if recover() != nil {
				bad[i] = true
			}
			s.ops[i] = float64(time.Since(t).Nanoseconds()) / 1e6
		}()
		cs.run(i)
	})
	s.wall = time.Since(start)
	rt = readRuntime().since(rt0)
	s.cpu, s.rssMB = selfCPU()-cpu0, residentMB()
	for _, b := range bad {
		if b {
			panicked++
		}
	}
	return s, rt, panicked
}

// tracedPass runs every cell on the calling goroutine, straight through
// the per-cell entry point, with one span per cell under a pass span.
func tracedPass(c *runCtx, cs *cellSet, n int, cellUS *[]float64) time.Duration {
	passID, done := c.tr.open(0, "", "pass", map[string]string{"workload": c.res.Workload, "pass": strconv.Itoa(n), "workers": "1"})
	defer done()
	start := time.Now()
	for i := 0; i < cs.n; i++ {
		t := time.Now()
		cs.run(i)
		end := time.Now()
		scenario, mode, cellSeed := cs.label(i)
		c.tr.add(passID, "cell-"+strconv.Itoa(i), "cell", t, end,
			map[string]string{"scenario": scenario, "mode": mode, "seed": strconv.FormatInt(cellSeed, 10)})
		*cellUS = append(*cellUS, float64(end.Sub(t).Nanoseconds())/1e3)
	}
	return time.Since(start)
}

// runSim measures a simulator workload: set-up (inputs from the seed,
// one warm-up pass that becomes the reference outcome), then passes
// alternating between one worker and N until the time allowance is used,
// every pass checked cell by cell against the reference.
func runSim(c *runCtx, build func(seedVal int64) (*cellSet, error)) error {
	var cs *cellSet
	var ref cellRef
	setup := func() error {
		var err error
		if cs, err = build(c.seed); err != nil {
			return err
		}
		if _, _, panicked := runPass(cs, 1); panicked > 0 {
			return fmt.Errorf("%d cells panicked in the warm-up pass", panicked)
		}
		ref = takeRef(cs)
		return nil
	}
	var rt1, rtN []rtDelta
	pass := func(wide bool) (sample, error) {
		workers := 1
		if wide {
			workers = c.n
		}
		s, rt, panicked := runPass(cs, workers)
		bad := ref.differing(cs) + panicked
		c.res.Attempted += cs.n
		c.res.Failed += bad
		if bad > 0 {
			c.res.fail("%d of %d cells panicked or differed from pass 1 at %d workers", bad, cs.n, workers)
		}
		if wide {
			rtN = append(rtN, rt)
		} else {
			rt1 = append(rt1, rt)
		}
		return s, nil
	}
	share := 1.0
	if c.tr != nil {
		share = 0.5 // the traced passes and the probes take the rest
	}
	l, err := c.measure(share, setup, pass)
	if err != nil {
		return err
	}
	c.res.Digests["inputs"] = cs.inputs
	c.res.Digests["outcomes"] = ref.digest
	c.endToEnd(cs.n, l)

	if c.tr == nil {
		return nil
	}
	cells := float64(cs.n)
	w1Wall, wNWall := medianWall(l.w1), medianWall(l.wN)
	c.res.setValue("runner.scaling", w1Wall/wNWall)
	field := func(ds []rtDelta, f func(rtDelta) float64) float64 {
		xs := make([]float64, len(ds))
		for i, d := range ds {
			xs[i] = f(d)
		}
		return median(xs)
	}
	c.res.setValue("runtime.allocs_per_op", field(rt1, func(d rtDelta) float64 { return d.allocs })/cells)
	c.res.setValue("runtime.alloc_bytes_per_op", field(rt1, func(d rtDelta) float64 { return d.allocBytes })/cells)
	c.res.setValue("runtime.gc_cycles_per_pass_w1", field(rt1, func(d rtDelta) float64 { return d.gcCycles }))
	c.res.setValue("runtime.gc_cycles_per_pass_wN", field(rtN, func(d rtDelta) float64 { return d.gcCycles }))
	c.res.setValue("runtime.gc_cpu_share_w1", field(rt1, func(d rtDelta) float64 { return d.gcShare }))
	c.res.setValue("runtime.gc_cpu_share_wN", field(rtN, func(d rtDelta) float64 { return d.gcShare }))
	c.res.setValue("est_share.gc", field(rt1, func(d rtDelta) float64 { return d.gcShare }))

	var cellUS, tracedWalls []float64
	for b := c.measureFor(0.25); len(tracedWalls) < 1 || b.left(); {
		tracedWalls = append(tracedWalls, tracedPass(c, cs, len(tracedWalls)+1, &cellUS).Seconds())
		bad := ref.differing(cs)
		c.res.Attempted += cs.n
		c.res.Failed += bad
		if bad > 0 {
			c.res.fail("%d of %d cells differed from pass 1 in a traced pass", bad, cs.n)
		}
	}
	c.res.setValue("trace_overhead_ratio", median(tracedWalls)/w1Wall)
	sorted := sortedCopy(cellUS)
	c.res.setValue("testbed.cell_us_p50", percentile(sorted, 50))
	p, v := tail(sorted, 99)
	c.res.setValue("testbed.cell_us_p99", v)
	if p != 99 {
		c.res.Notes = append(c.res.Notes, fmt.Sprintf("testbed.cell_us_p99 is p%g: %d cell spans do not support p99", p, len(sorted)))
	}
	return nil
}

func runCorpus(c *runCtx) error {
	var info corpusInfo
	err := runSim(c, func(seedVal int64) (*cellSet, error) {
		cs, i, err := newCorpus(seedVal)
		info = i
		return cs, err
	})
	if err != nil {
		return err
	}
	if info.mixMAPE > mixMAPELimit {
		c.res.fail("corpus cause mix is %.4f from Table 1 (MAPE), limit %.2f", info.mixMAPE, mixMAPELimit)
	}
	return nil
}

func runDelivery(c *runCtx) error { return runSim(c, newDelivery) }
