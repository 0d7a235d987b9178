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
					if _, err := cl.do(context.Background(), "upload", target{}, up); err != nil {
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

// TestFleetRejectsUnknownFrame checks an unexpected frame type gets a TErr
// without killing the server.
func TestFleetRejectsUnknownFrame(t *testing.T) {
	_, cl := startServer(t, ServerConfig{Shards: 1})
	if _, err := cl.do(context.Background(), "bogus", target{}, Frame{Type: TAck}); err == nil {
		t.Fatal("server answered a response-type frame")
	}
	if _, err := cl.FetchStats(); err != nil {
		t.Fatalf("server unusable after protocol error: %v", err)
	}
}

// TestCounterInstallCountBombRejected sends the unauthenticated 12-byte
// counter install whose table claims 2³²−1 entries in no bytes. The server
// must refuse it before allocating for them: one TErr, one error counted,
// and the connection and the server keep serving.
func TestCounterInstallCountBombRejected(t *testing.T) {
	srv, cl := startServer(t, ServerConfig{Shards: 1})
	conn := dialRaw(t, srv)
	if _, err := conn.Write([]byte{0x5E, 0xED, 0x01, 0x08, 0x00, 0x00, 0x00, 0x04, 0xFF, 0xFF, 0xFF, 0xFF}); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	if f, err := ReadFrame(br, DefaultMaxFrame); err != nil || f.Type != TErr {
		t.Fatalf("count bomb answered %v, %v; want TErr", f.Type, err)
	}
	if _, err := conn.Write(encodeFrames(Frame{Type: TStatsPull})); err != nil {
		t.Fatal(err)
	}
	if f, err := ReadFrame(br, DefaultMaxFrame); err != nil || f.Type != TStats {
		t.Fatalf("connection unusable after the refusal: %v, %v", f.Type, err)
	}
	if _, err := cl.do(context.Background(), "upload", target{}, uploadFrame(t, "001010000000077", 0)); err != nil {
		t.Fatalf("server unusable after the refusal: %v", err)
	}
	if st := srv.Stats(); st.Errors != 1 || st.Uploads != 1 {
		t.Fatalf("errors=%d uploads=%d, want 1 and 1", st.Errors, st.Uploads)
	}
}
