package fleet

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/seed5g/seed/internal/cause"
	"github.com/seed5g/seed/internal/core"
	"github.com/seed5g/seed/internal/fleet/cluster"
	"github.com/seed5g/seed/internal/metrics"
)

// The kill-and-rebalance campaign: a three-node journaled cluster takes a
// concurrent upload load through one clustered Client while the test
// goroutine, waiting on the acked-upload count, scripts the failures the
// durable tier exists for. At 1/3 of the uploads acked it kills n1 and
// restarts it over its journal; at 2/3 it drains n2 out (epoch 2) and
// brings it back (epoch 3), the load still running. No acked upload may
// be lost, the cross-node merged model must equal the sequential fold
// byte for byte, and every node must end at epoch 3.

// The campaign's load: per-device record rows and uploading goroutines.
const (
	campaignRecords = 6
	campaignWorkers = 8
)

// campaignUpload is one device's sealed record blob.
type campaignUpload struct {
	imsi   string
	sealed []byte
}

// campaignLoad derives the devices' uploads from seed, and the canonical
// model of their sequential fold.
func campaignLoad(t *testing.T, seed int64, devices int) ([]campaignUpload, []byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	baseline := core.Records{}
	loads := make([]campaignUpload, devices)
	for i := range loads {
		recs := core.Records{}
		for r := 0; r < campaignRecords; r++ {
			c := cause.MM(cause.Code(150 + rng.Intn(12)))
			if rng.Intn(2) == 1 {
				c = cause.SM(c.Code)
			}
			recs.Add(c, core.LearningOrder[rng.Intn(len(core.LearningOrder))], 1+rng.Intn(3))
		}
		baseline.Merge(recs)
		dev := NewSimDevice(DefaultMasterKey, fmt.Sprintf("00117%010d", i))
		sealed, err := dev.SealRecords(core.MarshalRecords(recs))
		if err != nil {
			t.Fatal(err)
		}
		loads[i] = campaignUpload{dev.IMSI, sealed}
	}
	return loads, MarshalModel(baseline)
}

// runCampaign drives the campaign on tc and checks its invariants. It
// returns the servers' counters summed at the end.
func runCampaign(t *testing.T, tc *testCluster, seed int64, devices int) ServerStats {
	loads, want := campaignLoad(t, seed, devices)
	cc := tc.client()
	ctx := context.Background()

	killAt, rebalanceAt := int64(devices/3), int64(2*devices/3)
	marks := map[int64]chan struct{}{killAt: make(chan struct{}), rebalanceAt: make(chan struct{})}
	var acked, lost atomic.Int64
	var wg sync.WaitGroup
	loadDone := make(chan struct{})
	lat := make([][]time.Duration, campaignWorkers) // each uploader's acked uploads, timed whole
	start := time.Now()
	for w := 0; w < campaignWorkers; w++ {
		wg.Add(1)
		go func(w int, part []campaignUpload) {
			defer wg.Done()
			for _, u := range part {
				sent := time.Now()
				if err := cc.UploadRecords(u.imsi, u.sealed); err != nil {
					lost.Add(1)
					t.Logf("%s: %v", u.imsi, err)
					continue
				}
				lat[w] = append(lat[w], time.Since(sent))
				if mark, ok := marks[acked.Add(1)]; ok {
					close(mark)
				}
			}
		}(w, loads[w*devices/campaignWorkers:(w+1)*devices/campaignWorkers])
	}
	go func() { wg.Wait(); close(loadDone) }()
	// A failed script step still waits for the load, whose goroutines log.
	defer wg.Wait()
	reach := func(mark int64) {
		t.Helper()
		select {
		case <-marks[mark]:
		case <-loadDone:
			t.Fatalf("the load ended at %d acked uploads, before the mark at %d", acked.Load(), mark)
		}
	}

	reach(killAt)
	tc.kill("n1")
	restart := time.Now()
	tc.restart("n1", cc.Map())
	recovery := time.Since(restart)
	ackedAtRestart := acked.Load()

	reach(rebalanceAt)
	var without []cluster.Node
	for _, n := range tc.nodes() {
		if n.ID != "n2" {
			without = append(without, n)
		}
	}
	if err := cc.Rebalance(ctx, cluster.New(2, without)); err != nil {
		t.Fatalf("rebalance to epoch 2: %v", err)
	}
	if err := cc.Rebalance(ctx, cluster.New(3, tc.nodes())); err != nil {
		t.Fatalf("rebalance to epoch 3: %v", err)
	}
	ackedAtEpoch3 := acked.Load()
	<-loadDone
	wall := time.Since(start)

	if n := lost.Load(); n > 0 {
		t.Errorf("%d of %d uploads lost", n, devices)
	}
	got, err := cc.FetchModel()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("model mismatch: the cluster's merged model (%d bytes) differs from the sequential fold (%d bytes)", len(got), len(want))
	}
	var sum ServerStats
	for id, srv := range tc.servers {
		if e := srv.Epoch(); e != 3 {
			t.Errorf("node %s ends at epoch %d, want 3", id, e)
		}
		sum.Add(srv.Stats())
	}
	replayed := tc.servers["n1"].Stats().ReplayedRecords
	if replayed == 0 {
		t.Error("the restarted n1 replayed no journal record")
	}
	up := metrics.NewSeries()
	for _, part := range lat {
		for _, d := range part {
			up.Add(d)
		}
	}
	ms := func(p float64) float64 { return float64(up.Percentile(p)) / float64(time.Millisecond) }
	t.Logf("seed %d: %d uploads in %.0f ms, lost=%d, model %d bytes match=%v; n1 restarted at %d acked in %.1f ms (%d records replayed); epoch 3 at %d acked; duplicates=%d retries=%d redials=%d; upload p50/p95/p99 %.2f/%.2f/%.2f ms",
		seed, devices, float64(wall)/float64(time.Millisecond), lost.Load(), len(got), bytes.Equal(got, want),
		ackedAtRestart, float64(recovery)/float64(time.Millisecond), replayed, ackedAtEpoch3,
		sum.Duplicates, cc.Retries(), cc.Redials(), ms(50), ms(95), ms(99))
	return sum
}

// TestClusterCampaignKillRebalance runs the campaign on direct loopback
// links.
func TestClusterCampaignKillRebalance(t *testing.T) {
	runCampaign(t, startCluster(t, 3), 42, 300)
}

// TestClusterCampaignLossyLinks runs the campaign with every node behind a
// forwarder that drops responses and breaks their connections. The uploads
// whose acks were dropped had been folded, so their retries must come back
// as duplicates, never as second folds.
func TestClusterCampaignLossyLinks(t *testing.T) {
	const seed = 7
	tc := startCluster(t, 3)
	tc.front = make(map[string]string)
	var fws []*forwarder
	for i := range len(tc.addrs) {
		id := fmt.Sprintf("n%d", i)
		fw := startForwarder(t, tc.addrs[id], 0.1, seed+int64(i))
		fws = append(fws, fw)
		tc.front[id] = fw.addr()
	}
	m := cluster.New(tc.epoch, tc.nodes())
	for _, srv := range tc.servers {
		srv.SetMap(m)
	}

	sum := runCampaign(t, tc, seed, 200)
	var kills int
	for _, fw := range fws {
		kills += fw.killed()
	}
	if kills == 0 {
		t.Fatal("the forwarders broke no connection: the campaign tested direct links")
	}
	if sum.Duplicates == 0 {
		t.Errorf("%d broken connections but no duplicate upload: no retry met an already folded upload", kills)
	}
	t.Logf("forwarders broke %d connections", kills)
}

// forwarder relays TCP connections to one node and breaks them at random:
// each chunk the node sends back is, with probability killProb drawn from
// a seeded stream, dropped and its connection closed both ways. Only
// responses are dropped, because a lost response is the loss exactly-once
// delivery exists for: the node folded the upload, and the client, which
// cannot know, retries it. It keeps every byte the clients sent, in the
// order it read them.
type forwarder struct {
	ln       net.Listener
	target   string
	killProb float64
	wg       sync.WaitGroup

	mu    sync.Mutex
	rng   *rand.Rand
	kills int
	sent  []byte
}

// startForwarder listens on a free loopback port until the test's cleanup
// closes it. The cleanup waits for the relays, which end when their
// clients close: start the forwarder before the client, whose cleanup
// then runs first.
func startForwarder(t *testing.T, target string, killProb float64, seed int64) *forwarder {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fw := &forwarder{
		ln: ln, target: target, killProb: killProb,
		rng: rand.New(rand.NewSource(seed)),
	}
	fw.wg.Add(1)
	go fw.acceptLoop()
	t.Cleanup(fw.close)
	return fw
}

func (fw *forwarder) addr() string { return fw.ln.Addr().String() }

func (fw *forwarder) killed() int {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	return fw.kills
}

func (fw *forwarder) sentBytes() []byte {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	return fw.sent
}

// Write keeps what a client sent before the relay passes it on.
func (fw *forwarder) Write(p []byte) (int, error) {
	fw.mu.Lock()
	fw.sent = append(fw.sent, p...)
	fw.mu.Unlock()
	return len(p), nil
}

func (fw *forwarder) close() {
	_ = fw.ln.Close()
	fw.wg.Wait()
}

func (fw *forwarder) acceptLoop() {
	defer fw.wg.Done()
	for {
		c, err := fw.ln.Accept()
		if err != nil {
			return
		}
		fw.wg.Add(1)
		go fw.relay(c)
	}
}

// relay pumps one client connection to the node and back. A node that is
// down (killed, not yet restarted) refuses the dial, and the client sees
// its connection close.
func (fw *forwarder) relay(client net.Conn) {
	defer fw.wg.Done()
	defer func() { _ = client.Close() }()
	node, err := net.Dial("tcp", fw.target)
	if err != nil {
		return
	}
	done := make(chan struct{}, 2)
	go func() { _, _ = io.Copy(io.MultiWriter(fw, node), client); done <- struct{}{} }()
	go func() { fw.pumpResponses(client, node); done <- struct{}{} }()
	<-done
	_ = client.Close()
	_ = node.Close()
	<-done
}

// pumpResponses copies the node's responses to the client chunk by chunk
// until a chunk draws a kill.
func (fw *forwarder) pumpResponses(client, node net.Conn) {
	buf := make([]byte, 4096)
	for {
		n, err := node.Read(buf)
		if n > 0 {
			fw.mu.Lock()
			kill := fw.rng.Float64() < fw.killProb
			if kill {
				fw.kills++
			}
			fw.mu.Unlock()
			if kill {
				return
			}
			if _, err := client.Write(buf[:n]); err != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}
