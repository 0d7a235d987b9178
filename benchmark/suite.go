package main

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"time"
)

// suiteRun is one execution of the evaluation suite as a process.
type suiteRun struct {
	wall   time.Duration
	cpu    time.Duration
	rss    float64
	digest string // of stdout without the lines that state timings
}

// suiteDraws executions, each at a seed of its own (drawSeed), make one
// pass.
const suiteDraws = 4

// execSuite runs seedbench to completion and digests what it printed.
func execSuite(c *runCtx, seedVal int64, parallel int) (suiteRun, error) {
	cmd := c.tools.suiteCommand(seedVal, parallel)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	start := time.Now()
	proc, err := startChild(cmd, nil)
	if err != nil {
		return suiteRun{}, err
	}
	<-proc.done
	r := suiteRun{wall: time.Since(start), digest: digestBytes(stripSuiteTiming(stdout.Bytes()))}
	r.cpu, r.rss = proc.usage()
	if proc.err != nil {
		return r, fmt.Errorf("%s: %w\n%s", cmd.Path, proc.err, proc.stderr)
	}
	return r, nil
}

// runSuite measures what a person regenerating the paper's evaluation
// waits for: whole executions of the built seedbench, cold prototype
// boots and process start included, alternating between -parallel 1 and
// -parallel N (where seedbench also re-runs each experiment sequentially
// to check its own determinism, as it does by default on a multi-core
// box). An execution fails if it exits non-zero or prints anything but
// the first execution at its seed, timing lines aside.
func runSuite(c *runCtx) error {
	ref := make([]string, suiteDraws)
	setup := func() error {
		for i := range ref {
			r, err := execSuite(c, drawSeed(c.seed, i), 1)
			if err != nil {
				return err
			}
			ref[i] = r.digest
		}
		return nil
	}
	// timed runs one pass: every draw once.
	timed := func(tr *tracer, parallel, n int) sample {
		s := sample{width: 1}
		for i := range ref {
			_, done := tr.open(0, "exec-"+strconv.Itoa(n)+"-"+strconv.Itoa(i), "exec", map[string]string{"workload": c.res.Workload, "parallel": strconv.Itoa(parallel), "draw": strconv.Itoa(i)})
			r, err := execSuite(c, drawSeed(c.seed, i), parallel)
			done()
			c.res.Attempted++
			if err != nil || r.digest != ref[i] {
				c.res.Failed++
				c.res.fail("seedbench -parallel %d: output differs from the first execution at its seed or it failed: %v", parallel, err)
			}
			s.wall += r.wall
			s.cpu += r.cpu
			s.rssMB = math.Max(s.rssMB, r.rss)
			s.ops = append(s.ops, r.wall.Seconds()*1e3)
		}
		return s
	}
	pass := func(wide bool) (sample, error) {
		if wide {
			return timed(nil, c.n, 0), nil
		}
		return timed(nil, 1, 0), nil
	}
	share := 1.0
	if c.tr != nil {
		share = 0.6
	}
	l, err := c.measure(share, setup, pass)
	if err != nil {
		return err
	}
	c.res.Digests["stdout"] = digest(ref)
	c.endToEnd(suiteDraws, l)

	if c.tr == nil {
		return nil
	}
	c.res.setValue("runner.scaling", medianWall(l.w1)/medianWall(l.wN))
	// A process is opaque from outside: the traced executions add one
	// span each, and the ratio shows that doing so costs nothing.
	var traced []float64
	for b := c.measureFor(0.2); len(traced) < 1 || b.left(); {
		traced = append(traced, timed(c.tr, 1, len(traced)+1).wall.Seconds())
	}
	c.res.setValue("trace_overhead_ratio", median(traced)/medianWall(l.w1))
	return nil
}
