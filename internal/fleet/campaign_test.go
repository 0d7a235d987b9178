package fleet

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/seed5g/seed/internal/cause"
	"github.com/seed5g/seed/internal/core"
	"github.com/seed5g/seed/internal/metrics"
)

// The kill-and-restart campaign: one journaled server takes a concurrent
// upload load through one Client while the test goroutine, waiting on the
// acked-upload count, scripts the failure the durable tier exists for. At
// 1/3 and again at 2/3 of the uploads acked it kills the server and
// restarts it over its journal on the same address, the load still
// running. No acked upload may be lost, the model must equal the
// sequential fold byte for byte, and each restart must replay journal
// records.

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

// campaignServer is the campaign's journaled server: each boot listens on
// the first one's address over the same journal directory, the in-process
// stand-in for a SIGKILLed seedfleetd started again.
type campaignServer struct {
	t    *testing.T
	cfg  ServerConfig
	srv  *Server
	past ServerStats // counters of the incarnations killed so far, summed
}

func startCampaignServer(t *testing.T) *campaignServer {
	t.Helper()
	cs := &campaignServer{t: t, cfg: ServerConfig{
		Addr: "127.0.0.1:0", Shards: 2, JournalDir: t.TempDir(), Logf: func(string, ...any) {},
	}}
	cs.boot()
	cs.cfg.Addr = cs.srv.Addr().String()
	t.Cleanup(func() { cs.srv.Kill() })
	return cs
}

func (cs *campaignServer) boot() {
	cs.t.Helper()
	cs.srv = NewServer(cs.cfg)
	if err := cs.srv.Start(); err != nil {
		cs.t.Fatal(err)
	}
}

// restart kills the server and boots it again over its journal, and
// returns how long the boot took and how many records it replayed.
func (cs *campaignServer) restart() (time.Duration, uint64) {
	cs.t.Helper()
	cs.srv.Kill()
	st := cs.srv.Stats()
	cs.past.Uploads += st.Uploads
	cs.past.Duplicates += st.Duplicates
	start := time.Now()
	cs.boot()
	return time.Since(start), cs.srv.Stats().ReplayedRecords
}

// runCampaign drives the campaign against cs through a client of addr,
// which reaches cs directly or through a forwarder, and checks its
// invariants. It returns the uploads and duplicates every incarnation of
// the server counted, summed.
func runCampaign(t *testing.T, cs *campaignServer, addr string, seed int64, devices int) ServerStats {
	loads, want := campaignLoad(t, seed, devices)
	cl := NewClient(ClientConfig{Addr: addr, Conns: 2})
	t.Cleanup(cl.Close)

	marks := []int64{int64(devices / 3), int64(2 * devices / 3)}
	reached := map[int64]chan struct{}{}
	for _, m := range marks {
		reached[m] = make(chan struct{})
	}
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
				if err := cl.UploadRecords(u.imsi, u.sealed); err != nil {
					lost.Add(1)
					t.Logf("%s: %v", u.imsi, err)
					continue
				}
				lat[w] = append(lat[w], time.Since(sent))
				if mark, ok := reached[acked.Add(1)]; ok {
					close(mark)
				}
			}
		}(w, loads[w*devices/campaignWorkers:(w+1)*devices/campaignWorkers])
	}
	go func() { wg.Wait(); close(loadDone) }()
	// A failed script step still waits for the load, whose goroutines log.
	defer wg.Wait()

	var restarts []string
	for _, mark := range marks {
		select {
		case <-reached[mark]:
		case <-loadDone:
			t.Fatalf("the load ended at %d acked uploads, before the mark at %d", acked.Load(), mark)
		}
		at := acked.Load()
		took, replayed := cs.restart()
		if replayed == 0 {
			t.Errorf("the restart at %d acked uploads replayed no journal record", at)
		}
		restarts = append(restarts, fmt.Sprintf("%d acked: %.1f ms, %d records replayed",
			at, float64(took)/float64(time.Millisecond), replayed))
	}
	<-loadDone
	wall := time.Since(start)

	if n := lost.Load(); n > 0 {
		t.Errorf("%d of %d uploads lost", n, devices)
	}
	got, err := cl.FetchModel()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("model mismatch: the server's model (%d bytes) differs from the sequential fold (%d bytes)", len(got), len(want))
	}
	sum := cs.past
	st := cs.srv.Stats()
	sum.Uploads += st.Uploads
	sum.Duplicates += st.Duplicates
	up := metrics.NewSeries()
	for _, part := range lat {
		for _, d := range part {
			up.Add(d)
		}
	}
	ms := func(p float64) float64 { return float64(up.Percentile(p)) / float64(time.Millisecond) }
	t.Logf("seed %d: %d uploads in %.0f ms, lost=%d, model %d bytes match=%v; restarts at %s; uploads=%d duplicates=%d retries=%d redials=%d; upload p50/p95/p99 %.2f/%.2f/%.2f ms",
		seed, devices, float64(wall)/float64(time.Millisecond), lost.Load(), len(got), bytes.Equal(got, want),
		strings.Join(restarts, " and "), sum.Uploads, sum.Duplicates, cl.Retries(), cl.Redials(), ms(50), ms(95), ms(99))
	return sum
}

// TestCampaignKillRestart runs the campaign on a direct loopback link.
func TestCampaignKillRestart(t *testing.T) {
	cs := startCampaignServer(t)
	runCampaign(t, cs, cs.cfg.Addr, 42, 300)
}

// TestCampaignLossyLinks runs the campaign with the server behind a
// forwarder that drops responses and breaks their connections. The uploads
// whose acks were dropped had been folded, so their retries must come back
// as duplicates, never as second folds.
func TestCampaignLossyLinks(t *testing.T) {
	const seed = 7
	cs := startCampaignServer(t)
	fw := startForwarder(t, cs.cfg.Addr, 0.1, seed)
	sum := runCampaign(t, cs, fw.addr(), seed, 200)
	kills := fw.killed()
	if kills == 0 {
		t.Fatal("the forwarder broke no connection: the campaign tested a direct link")
	}
	if sum.Duplicates == 0 {
		t.Errorf("%d broken connections but no duplicate upload: no retry met an already folded upload", kills)
	}
	t.Logf("the forwarder broke %d connections", kills)
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
