package main

import (
	"fmt"
	"math"
	"time"
)

// runProbes is the workload-independent half of the traced run: every
// layer's unit costs (micro-probes through its public functions), the
// work counts of the probe cells (from the layers' Stats()), the corpus
// compiler and decision-trace overhead, the disk's fsync cost — and from
// those the estimated share of a cell's time each layer accounts for.
func runProbes(c *runCtx) error {
	get := func(name string) float64 { return c.res.Metrics[name].Value }

	for _, p := range microProbes(c.n) {
		start := time.Now()
		p.run(c.res.setValue)
		c.tr.add(0, "", "probe."+p.layer, start, time.Now(), nil)
	}

	start := time.Now()
	counts, cellUS := probeCellCounts(c.seed)
	c.tr.add(0, "", "probe.cells", start, time.Now(), nil)
	for name, v := range counts {
		c.res.setValue(name, v)
	}
	c.res.setValue("testbed.probe_cell_us", cellUS)
	c.res.Digests["probe_counts"] = digest(counts)

	start = time.Now()
	_, info, err := newCorpus(c.seed)
	if err != nil {
		return err
	}
	c.res.setValue("workload.compile_ms", float64(info.compile.Nanoseconds())/1e6)
	c.res.setValue("workload.mix_mape", info.mixMAPE)
	c.tr.add(0, "", "probe.workload", start, time.Now(), nil)

	start = time.Now()
	ratio, events, err := policyProbe(info)
	if err != nil {
		c.res.fail("%v", err)
	}
	c.res.setValue("policy.traced_ratio", ratio)
	c.res.setValue("policy.events_per_cell", events)
	c.tr.add(0, "", "probe.policy", start, time.Now(), nil)

	start = time.Now()
	fsyncDir, err := tempDir(c.tmpBase, "fsync-")
	if err != nil {
		return err
	}
	defer removeTemp(fsyncDir)
	us, err := fsyncCost(fsyncDir)
	if err != nil {
		return fmt.Errorf("fsync probe: %w", err)
	}
	c.res.setValue("disk.fsync_us", us)
	c.tr.add(0, "", "probe.disk", start, time.Now(), nil)

	// Estimates, not measurements: a unit cost taken in isolation times
	// how often the probe cells did that work, over the cells' wall time.
	// Cache effects and overlap are ignored; the shares need not sum to 1.
	cellNS := cellUS * 1e3
	nasMsgs := get("modem.nas_sent_per_cell") + get("modem.nas_received_per_cell")
	nasNS := get("nas.marshal_ns") + get("nas.unmarshal_ns") + get("nas.protect_ns") + get("nas.unprotect_ns")
	c.res.setValue("est_share.nas", nasMsgs*nasNS/cellNS)
	c.res.setValue("est_share.sim", (get("sim.apdus_per_cell")*get("sim.apdu_ns")+get("sim.auth_per_cell")*get("sim.auth_ns"))/cellNS)
	c.res.setValue("est_share.netemu", get("netemu.frames_per_cell")*get("netemu.frame_ns")/cellNS)
	c.res.setValue("est_share.crypto5g", (get("sim.auth_per_cell")*get("crypto5g.milenage_ns")+get("nas.protected_per_cell")*get("crypto5g.eia2_ns"))/cellNS)
	c.res.setValue("est_share.boot", math.Min(1, get("testbed.boot_us")/cellUS))
	return nil
}
