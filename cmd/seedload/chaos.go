package main

// The chaos campaign: spawn a real multi-process seedfleetd cluster, drive
// uploads through it, and script the failures the durable tier exists
// for — SIGKILL-and-restart mid-load, a two-epoch rebalance under load,
// and (optionally) lossy links in front of every node. The campaign
// passes only if zero acked uploads are lost and the final cross-node
// merged model is byte-identical to the in-process sequential baseline.

import (
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"github.com/seed5g/seed/internal/fleet"
	"github.com/seed5g/seed/internal/fleet/cluster"
)

// The lossy proxies' base one-way delay and added uniform jitter.
const (
	proxyDelay  = 2 * time.Millisecond
	proxyJitter = 3 * time.Millisecond
)

type chaosOpts struct {
	fleetd    string
	nodes     int
	devices   int
	workers   int
	records   int
	seed      int64
	masterKey [16]byte
	killDown  time.Duration
	lossy     bool
	proxyKill float64
	jsonOut   string
}

// chaosNode is one spawned seedfleetd plus its optional lossy front.
type chaosNode struct {
	id      string
	backend string // where seedfleetd listens
	addr    string // what clients dial (proxy when lossy)
	journal string
	cmd     *exec.Cmd
	proxy   *lossyProxy
}

type nodeLatency struct {
	Node     string `json:"node"`
	Uploads  uint64 `json:"uploads"`
	Replayed uint64 `json:"replayed_records"`
	uploadLatency
}

type chaosResult struct {
	Nodes      int     `json:"nodes"`
	Devices    int     `json:"devices"`
	Workers    int     `json:"workers"`
	Seed       int64   `json:"seed"`
	Lossy      bool    `json:"lossy"`
	WallMS     float64 `json:"wall_ms"`
	Lost       int64   `json:"lost"`
	ModelMatch bool    `json:"model_match"`
	ModelBytes int     `json:"model_bytes"`

	KilledNode   string  `json:"killed_node"`
	KillAtUpload int     `json:"kill_at_upload"`
	RecoveryMS   float64 `json:"recovery_ms"`
	FinalEpoch   uint64  `json:"final_epoch"`

	Retries    uint64 `json:"client_retries"`
	Redials    uint64 `json:"client_redials"`
	Duplicates uint64 `json:"server_duplicates"`

	uploadLatency

	PerNode []nodeLatency `json:"per_node"`
}

// freePort binds :0, records the port, and releases it. The tiny window
// before the spawned server rebinds is acceptable for a local campaign.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	_ = ln.Close()
	return addr, nil
}

func runChaos(o chaosOpts) int {
	fail := func(format string, args ...any) int {
		fmt.Fprintf(os.Stderr, "seedload chaos: "+format+"\n", args...)
		return 1
	}
	if o.fleetd == "" {
		return fail("-chaos requires -fleetd PATH (the seedfleetd binary to spawn)")
	}
	if o.nodes < 2 {
		return fail("-nodes must be >= 2")
	}
	journals, err := os.MkdirTemp("", "seedchaos-*")
	if err != nil {
		return fail("journal root: %v", err)
	}
	defer func() { _ = os.RemoveAll(journals) }()

	// --- topology ---------------------------------------------------------
	nodes := make([]*chaosNode, o.nodes)
	var spec string
	for i := range nodes {
		backend, err := freePort()
		if err != nil {
			return fail("port: %v", err)
		}
		n := &chaosNode{
			id:      fmt.Sprintf("n%d", i),
			backend: backend,
			addr:    backend,
			journal: filepath.Join(journals, fmt.Sprintf("n%d", i)),
		}
		if o.lossy {
			p, err := startLossyProxy("127.0.0.1:0", backend, proxyDelay, proxyJitter, o.proxyKill, 0, o.seed+int64(i))
			if err != nil {
				return fail("proxy: %v", err)
			}
			defer p.Close()
			n.proxy = p
			n.addr = p.Addr()
		}
		nodes[i] = n
		if i > 0 {
			spec += ","
		}
		spec += n.id + "=" + n.addr
	}

	spawn := func(n *chaosNode) error {
		cmd := exec.Command(o.fleetd,
			"-addr", n.backend,
			"-node-id", n.id,
			"-cluster", spec,
			"-epoch", "1",
			"-journal", n.journal,
			"-shards", "2",
		)
		cmd.Stderr = os.Stderr
		cmd.Stdout = os.Stderr
		if err := cmd.Start(); err != nil {
			return err
		}
		n.cmd = cmd
		return nil
	}
	for _, n := range nodes {
		if err := spawn(n); err != nil {
			return fail("spawn %s: %v", n.id, err)
		}
	}
	defer func() {
		for _, n := range nodes {
			if n.cmd != nil && n.cmd.Process != nil {
				_ = n.cmd.Process.Kill()
				_, _ = n.cmd.Process.Wait()
			}
		}
	}()

	var members []cluster.Node
	for _, n := range nodes {
		members = append(members, cluster.Node{ID: n.id, Addr: n.addr})
	}
	cc, err := fleet.NewClusterClient(fleet.ClusterClientConfig{
		Nodes: members,
		Epoch: 1,
		Client: fleet.ClientConfig{
			Conns:       o.workers,
			MaxRetries:  12,
			BackoffBase: 5 * time.Millisecond,
			BackoffMax:  250 * time.Millisecond,
			Seed:        o.seed,
		},
		MaxAttempts: 10,
	})
	if err != nil {
		return fail("cluster client: %v", err)
	}
	defer cc.Close()
	ctx := context.Background()
	if err := cc.WaitHealthy(ctx, 15*time.Second); err != nil {
		return fail("cluster never became healthy: %v", err)
	}
	logf("seedload chaos: %d-node cluster up (lossy=%v): %s", o.nodes, o.lossy, spec)

	// --- workload ---------------------------------------------------------
	loads, expected, _ := genFleet(o.seed, o.devices, o.records, 0, 0)

	// --- campaign script --------------------------------------------------
	// Uploads are acked-then-counted: d.acked only moves when the cluster
	// acknowledged the fold, so the kill at devices/3 strikes mid-load by
	// construction. The scripted failures:
	//   acked == devices/3   → SIGKILL n1, wait killDown, restart (recovery timed)
	//   acked == 2*devices/3 → epoch 2: drain n2 out; epoch 3: bring n2 back
	victim, drained := nodes[1], nodes[2%len(nodes)]
	d := driver{cc: cc, masterKey: o.masterKey, workers: o.workers}
	killAt, rebalanceAt := int64(o.devices/3), int64(2*o.devices/3)
	var recoveryMS float64
	scriptErr := make(chan error, 1)
	scriptDone := make(chan struct{})
	go func() {
		defer close(scriptDone)
		waitFor := func(mark int64) {
			for d.acked.Load() < mark {
				time.Sleep(2 * time.Millisecond)
			}
		}

		waitFor(killAt)
		logf("seedload chaos: SIGKILL %s at %d acked uploads", victim.id, d.acked.Load())
		_ = victim.cmd.Process.Kill()
		_, _ = victim.cmd.Process.Wait()
		time.Sleep(o.killDown)
		restart := time.Now()
		if err := spawn(victim); err != nil {
			scriptErr <- fmt.Errorf("restart %s: %w", victim.id, err)
			return
		}
		probe := fleet.NewClient(fleet.ClientConfig{
			Addr: victim.addr, Conns: 1,
			MaxRetries: 0, BackoffBase: time.Millisecond,
		})
		for {
			if _, err := probe.FetchStats(); err == nil {
				break
			}
			if time.Since(restart) > 30*time.Second {
				probe.Close()
				scriptErr <- fmt.Errorf("%s did not come back within 30s", victim.id)
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		probe.Close()
		recoveryMS = float64(time.Since(restart)) / float64(time.Millisecond)
		logf("seedload chaos: %s recovered in %.1fms", victim.id, recoveryMS)

		waitFor(rebalanceAt)
		var without []cluster.Node
		for _, n := range nodes {
			if n.id != drained.id {
				without = append(without, cluster.Node{ID: n.id, Addr: n.addr})
			}
		}
		logf("seedload chaos: rebalance epoch 2 — draining %s under load", drained.id)
		if err := cc.Rebalance(ctx, cluster.New(2, without, 0)); err != nil {
			scriptErr <- fmt.Errorf("rebalance out: %w", err)
			return
		}
		logf("seedload chaos: rebalance epoch 3 — re-adding %s under load", drained.id)
		if err := cc.Rebalance(ctx, cluster.New(3, members, 0)); err != nil {
			scriptErr <- fmt.Errorf("rebalance back: %w", err)
			return
		}
	}()

	// --- drive ------------------------------------------------------------
	wall := d.run(loads)
	<-scriptDone
	select {
	case err := <-scriptErr:
		return fail("%v", err)
	default:
	}

	// --- verdict ----------------------------------------------------------
	got, err := cc.FetchClusterModel(ctx)
	if err != nil {
		return fail("final model pull: %v", err)
	}
	match := string(got) == string(expected)

	res := chaosResult{
		Nodes: o.nodes, Devices: o.devices, Workers: o.workers, Seed: o.seed,
		Lossy:        o.lossy,
		WallMS:       float64(wall) / float64(time.Millisecond),
		Lost:         d.lost.Load(),
		ModelMatch:   match,
		ModelBytes:   len(got),
		KilledNode:   victim.id,
		KillAtUpload: int(killAt),
		RecoveryMS:   recoveryMS,
		Retries:      cc.Retries(),
		Redials:      cc.Redials(),

		uploadLatency: uploadLatencyOf(cc.Latency("upload")),
	}
	sum, stats, err := fetchStats(cc)
	if err != nil {
		return fail("final stats: %v", err)
	}
	res.Duplicates, res.FinalEpoch = sum.Duplicates, sum.Epoch
	for _, n := range nodes {
		st := stats[n.id]
		res.PerNode = append(res.PerNode, nodeLatency{
			Node: n.id, Uploads: st.Uploads, Replayed: st.ReplayedRecords,
			uploadLatency: uploadLatencyOf(cc.LatencyOn(n.id, "upload")),
		})
	}

	logf("seedload chaos: %d uploads in %.0fms, lost=%d duplicates=%d model_match=%v recovery=%.1fms epoch=%d",
		o.devices, res.WallMS, res.Lost, res.Duplicates, res.ModelMatch, res.RecoveryMS, res.FinalEpoch)
	logf("seedload chaos: %s", latSummary(cc.Latency("upload"), "upload"))

	exit := 0
	if res.Lost > 0 {
		fmt.Fprintf(os.Stderr, "seedload chaos: %d acked-upload candidates LOST\n", res.Lost)
		exit = 1
	}
	if !match {
		fmt.Fprintf(os.Stderr, "seedload chaos: MODEL MISMATCH: cluster %d bytes, baseline %d bytes\n",
			len(got), len(expected))
		exit = 1
	}
	if res.FinalEpoch != 3 {
		fmt.Fprintf(os.Stderr, "seedload chaos: cluster finished at epoch %d, want 3\n", res.FinalEpoch)
		exit = 1
	}

	if !writeJSON(o.jsonOut, res) {
		exit = 1
	}
	return exit
}
