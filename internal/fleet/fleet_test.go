package fleet

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"github.com/seed5g/seed/internal/cause"
	"github.com/seed5g/seed/internal/core"
	"github.com/seed5g/seed/internal/report"
)

// startServer runs a quiet server on a free loopback port and returns it
// with a client. Shutdown order (client first) mirrors real use.
func startServer(t *testing.T, cfg ServerConfig) (*Server, *Client) {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	srv := NewServer(cfg)
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	cl := NewClient(ClientConfig{Addr: srv.Addr().String(), Conns: 2})
	t.Cleanup(func() {
		cl.Close()
		_ = srv.Shutdown()
	})
	return srv, cl
}

// homeShard is the shard that serves the device with this IMSI.
func (s *Server) homeShard(imsi string) *shard { return s.shardOf([]byte(imsi)) }

func deviceRecords(i int) core.Records {
	c := cause.MM(cause.Code(150 + i%3))
	a := core.LearningOrder[i%len(core.LearningOrder)]
	return core.Records{c: {a: 1 + i%2}}
}

// TestFleetEndToEnd drives devices through upload → report → query and
// checks the aggregate model is byte-identical to a sequential in-process
// fold, the suggestion round trip opens, and nothing was dropped.
func TestFleetEndToEnd(t *testing.T) {
	srv, cl := startServer(t, ServerConfig{Shards: 3})

	const devices = 40
	baseline := core.Records{}
	var wg sync.WaitGroup
	for i := 0; i < devices; i++ {
		recs := deviceRecords(i)
		baseline.Merge(recs)
		wg.Add(1)
		go func(i int, recs core.Records) {
			defer wg.Done()
			dev := NewSimDevice(DefaultMasterKey, fmt.Sprintf("00101%010d", i))
			sealed, err := dev.SealRecords(core.MarshalRecords(recs))
			if err == nil {
				err = cl.UploadRecords(dev.IMSI, sealed)
			}
			if err != nil {
				t.Errorf("device %d upload: %v", i, err)
				return
			}
			rep := report.FailureReport{Type: report.FailDNS, Direction: report.DirBoth, Domain: "x.test"}
			sr, err := dev.SealReport(rep.Marshal())
			if err == nil {
				err = cl.Report(dev.IMSI, sr)
			}
			if err != nil {
				t.Errorf("device %d report: %v", i, err)
			}
		}(i, recs)
	}
	wg.Wait()

	got, err := cl.FetchModel()
	if err != nil {
		t.Fatal(err)
	}
	want := MarshalModel(baseline)
	if !bytes.Equal(got, want) {
		t.Fatalf("aggregate model differs: server %d bytes, baseline %d bytes", len(got), len(want))
	}

	// Model-push leg: the hottest cause must come back as a sealed
	// suggestion the device can open.
	dev := NewSimDevice(DefaultMasterKey, "001010000000000")
	suggestion := func(c cause.Cause) (core.DiagMessage, bool, error) {
		payload, err := cl.Query(dev.IMSI, c)
		if err != nil {
			return core.DiagMessage{}, false, err
		}
		return dev.OpenSuggest(payload)
	}
	m, ok, err := suggestion(cause.MM(150))
	if err != nil || !ok {
		t.Fatalf("query: ok=%v err=%v", ok, err)
	}
	if m.Kind != core.DiagSuggestAction || m.Code != 150 {
		t.Fatalf("suggestion %+v", m)
	}
	// A cause nobody reported → abstain, not an error.
	if _, ok, err := suggestion(cause.SM(250)); err != nil || ok {
		t.Fatalf("expected abstain, got ok=%v err=%v", ok, err)
	}

	st := srv.Stats()
	if st.Uploads != devices || st.Reports != devices || st.Dropped != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestFleetDuplicateUploadIdempotent replays the exact sealed bytes of an
// acknowledged upload (a client retry after a lost ack) and checks the
// server acks without folding twice.
func TestFleetDuplicateUploadIdempotent(t *testing.T) {
	srv, cl := startServer(t, ServerConfig{Shards: 2})

	dev := NewSimDevice(DefaultMasterKey, "001010000000099")
	sealed, err := dev.SealRecords(core.MarshalRecords(deviceRecords(7)))
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.UploadRecords(dev.IMSI, sealed); err != nil {
		t.Fatal(err)
	}
	before, _ := cl.FetchModel()
	for i := 0; i < 3; i++ {
		if err := cl.UploadRecords(dev.IMSI, sealed); err != nil {
			t.Fatalf("retry %d: %v", i, err)
		}
	}
	after, _ := cl.FetchModel()
	if !bytes.Equal(before, after) {
		t.Fatal("duplicate upload changed the model")
	}
	st := srv.Stats()
	if st.Uploads != 1 || st.Duplicates != 3 {
		t.Fatalf("uploads=%d duplicates=%d", st.Uploads, st.Duplicates)
	}
}

// TestFleetTamperedUploadRejected flips a ciphertext bit and expects a
// server error (integrity), with the connection still usable after.
func TestFleetTamperedUploadRejected(t *testing.T) {
	_, cl := startServer(t, ServerConfig{Shards: 1})

	dev := NewSimDevice(DefaultMasterKey, "001010000000003")
	sealed, err := dev.SealRecords(core.MarshalRecords(deviceRecords(1)))
	if err != nil {
		t.Fatal(err)
	}
	tampered := append([]byte(nil), sealed...)
	tampered[len(tampered)-1] ^= 0xFF
	if err := cl.UploadRecords(dev.IMSI, tampered); err == nil {
		t.Fatal("tampered upload accepted")
	} else if !strings.Contains(err.Error(), "integrity") {
		t.Fatalf("want integrity failure, got %v", err)
	}
	// The connection survives the error frame; a clean upload still works.
	dev2 := NewSimDevice(DefaultMasterKey, "001010000000004")
	sealed2, _ := dev2.SealRecords(core.MarshalRecords(deviceRecords(2)))
	if err := cl.UploadRecords(dev2.IMSI, sealed2); err != nil {
		t.Fatal(err)
	}
}

// TestBackpressureManyConns has more connections contend for one shard
// than its lock admits waiting: with the lock held, queueDepth of them
// wait and the rest are refused TRetryAfter. A connection holds at most one
// waiting request, so it takes queueDepth+2 connections, one client of one
// connection each, two devices apiece. Once the lock is released the
// clients' retries land every upload exactly once, and the model is the
// sequential fold, in memory and journaled.
func TestBackpressureManyConns(t *testing.T) {
	for _, journaled := range []bool{false, true} {
		t.Run(fmt.Sprintf("journaled=%v", journaled), func(t *testing.T) {
			const conns = queueDepth + 2
			const devices = 2 * conns
			cfg := ServerConfig{Shards: 1}
			if journaled {
				cfg.JournalDir = t.TempDir()
			}
			srv := quietServer(t, cfg)
			if err := srv.Start(); err != nil {
				t.Fatal(err)
			}
			defer func() { _ = srv.Shutdown() }()
			clients := make([]*Client, conns)
			for i := range clients {
				clients[i] = NewClient(ClientConfig{Addr: srv.Addr().String(), Conns: 1})
				defer clients[i].Close()
			}

			sh := srv.shards[0]
			sh.lock.Lock()
			baseline := core.Records{}
			var wg sync.WaitGroup
			for i := 0; i < devices; i++ {
				up := uploadFrame(t, fmt.Sprintf("00128%010d", i), i)
				baseline.Merge(deviceRecords(i))
				wg.Add(1)
				go func(cl *Client) {
					defer wg.Done()
					if _, err := cl.do(context.Background(), "upload", up); err != nil {
						t.Error(err)
					}
				}(clients[i%conns])
			}
			waitFor(t, "a full wait and a refusal", func() bool {
				return sh.waiting.Load() == queueDepth && srv.backpressured.Load() > 0
			})
			sh.lock.Unlock()
			wg.Wait()

			if st := srv.Stats(); st.Uploads != devices || st.Duplicates != 0 || st.Dropped != 0 || st.Backpressured == 0 {
				t.Fatalf("uploads=%d duplicates=%d dropped=%d backpressured=%d, want %d, 0, 0 and some",
					st.Uploads, st.Duplicates, st.Dropped, st.Backpressured, devices)
			}
			if !bytes.Equal(srv.Model(), MarshalModel(baseline)) {
				t.Fatal("model differs from the sequential fold")
			}
		})
	}
}

// TestFleetRejectsUnknownFrame sends every frame type a server does not
// serve on one connection: a response type, and each retired multi-node
// request and response type (map pull, prepare, counter install with a
// table claiming 2³²−1 entries in no bytes, commit, and the map, prepared
// and redirect answers). Each gets one TErr and changes nothing: the
// connection and the server keep serving, and the model and the upload
// counters stay as they were.
func TestFleetRejectsUnknownFrame(t *testing.T) {
	srv, cl := startServer(t, ServerConfig{Shards: 1})
	if _, err := cl.do(context.Background(), "upload", uploadFrame(t, "001010000000077", 0)); err != nil {
		t.Fatal(err)
	}
	model, before := srv.Model(), srv.Stats()
	bomb := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	var frames []Frame
	for _, typ := range []FrameType{TAck, 0x06, 0x07, 0x08, 0x09, 0x86, 0x87, 0x88} {
		frames = append(frames, Frame{Type: typ, Payload: bomb})
	}
	conn := dialRaw(t, srv)
	writeFrames(t, conn, append(frames, Frame{Type: TStatsPull})...)
	got := readFrames(t, bufio.NewReader(conn), len(frames)+1)
	want := make([]FrameType, len(frames), len(frames)+1)
	for i := range want {
		want[i] = TErr
	}
	checkTypes(t, "unknown frames", got, append(want, TStats)...)
	if !bytes.Equal(srv.Model(), model) {
		t.Error("an unknown frame changed the model")
	}
	if st := srv.Stats(); st.Errors != uint64(len(frames)) || st.Uploads != before.Uploads || st.Duplicates != before.Duplicates {
		t.Errorf("errors=%d uploads=%d duplicates=%d, want %d, %d and %d",
			st.Errors, st.Uploads, st.Duplicates, len(frames), before.Uploads, before.Duplicates)
	}
	if _, err := cl.do(context.Background(), "bogus", Frame{Type: TAck}); err == nil {
		t.Fatal("the client's request loop took a TErr for an answer")
	}
	if _, err := cl.FetchStats(); err != nil {
		t.Fatalf("server unusable after the rejections: %v", err)
	}
}
