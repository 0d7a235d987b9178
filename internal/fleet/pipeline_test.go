package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/seed5g/seed/internal/cause"
	"github.com/seed5g/seed/internal/core"
	"github.com/seed5g/seed/internal/report"
)

// The pipelining contract's tests. None of them sleeps for an outcome:
// where a test needs the server in a known state it parks a connection
// (on a shard's lock, or in the journal's fsync hook) and waits for the
// state itself with waitFor.

// waitFor polls cond until it holds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(20 * time.Second); !cond(); time.Sleep(50 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

func quietServer(t testing.TB, cfg ServerConfig) *Server {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	cfg.Logf = func(string, ...any) {}
	return NewServer(cfg)
}

func dialRaw(t testing.TB, srv *Server) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// uploadFrame seals deviceRecords(i) as a fresh device's first upload.
func uploadFrame(t *testing.T, imsi string, i int) Frame {
	t.Helper()
	sealed, err := NewSimDevice(DefaultMasterKey, imsi).SealRecords(core.MarshalRecords(deviceRecords(i)))
	if err != nil {
		t.Fatal(err)
	}
	return Frame{Type: TUpload, Payload: AppendSealedPayload(nil, imsi, sealed)}
}

// imsisOnShard returns n distinct IMSIs whose home is shard idx.
func imsisOnShard(srv *Server, idx, n int) []string {
	var out []string
	for i := 0; len(out) < n; i++ {
		if imsi := fmt.Sprintf("00120%010d", i); srv.homeShard(imsi).idx == idx {
			out = append(out, imsi)
		}
	}
	return out
}

func encodeFrames(frames ...Frame) []byte {
	var wire []byte
	for _, f := range frames {
		wire = AppendFrame(wire, f)
	}
	return wire
}

// parkFirstSync returns a syncHook that holds the first journal fsync it
// sees until release is closed, and the channel that announces it with
// the index of the shard committing.
func parkFirstSync() (hook func(int), entered chan int, release chan struct{}) {
	entered, release = make(chan int, 1), make(chan struct{})
	var first sync.Once
	return func(shard int) {
		first.Do(func() {
			entered <- shard
			<-release
		})
	}, entered, release
}

// writeFrames writes frames to c in one Write.
func writeFrames(t *testing.T, c net.Conn, frames ...Frame) {
	t.Helper()
	if _, err := c.Write(encodeFrames(frames...)); err != nil {
		t.Fatal(err)
	}
}

// readFrames reads n frames off br.
func readFrames(t *testing.T, br *bufio.Reader, n int) []Frame {
	t.Helper()
	got := make([]Frame, n)
	for i := range got {
		f, err := ReadFrame(br, DefaultMaxFrame)
		if err != nil {
			t.Fatalf("after %d of %d responses: %v", i, n, err)
		}
		got[i] = f
	}
	return got
}

// acks is n TAck frame types.
func acks(n int) []FrameType {
	out := make([]FrameType, n)
	for i := range out {
		out[i] = TAck
	}
	return out
}

// checkTypes fails unless got's frame types are want, in order.
func checkTypes(t *testing.T, what string, got []Frame, want ...FrameType) {
	t.Helper()
	for i, w := range want {
		if got[i].Type != w {
			t.Errorf("%s: response %d is %v, want %v", what, i, got[i].Type, w)
		}
	}
}

func TestFNV32aMatchesHashFNV(t *testing.T) {
	for _, s := range []string{"", "a", "310170000000001", "001010000000099", "00120\x00\xff", "a-much-longer-test-identity-than-any-imsi"} {
		h := fnv.New32a()
		_, _ = h.Write([]byte(s))
		if got, want := fnv32a(s), h.Sum32(); got != want {
			t.Errorf("fnv32a(%q) = %#x, hash/fnv says %#x", s, got, want)
		}
	}
}

// (a) Each connection's replies leave in its request order, whatever each
// request waits for. Shard 0's lock is held here, and queueDepth
// connections each park an upload on it; the first has an admin request
// pipelined behind it. On one more connection an upload for shard 0 finds
// that wait full and is refused at once, and the requests behind it — the
// other shard's work, a query that reads every shard's model, inline
// answers and errors — are answered in order while the first connection
// still waits.
func TestPipelineAnswersInRequestOrder(t *testing.T) {
	srv := quietServer(t, ServerConfig{Shards: 2})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Shutdown() }()
	on0, on1 := imsisOnShard(srv, 0, queueDepth+1), imsisOnShard(srv, 1, 1)
	sh0 := srv.shards[0]

	sh0.lock.Lock()
	locked := true
	defer func() {
		if locked {
			sh0.lock.Unlock()
		}
	}()
	waiting := make([]net.Conn, queueDepth)
	for i := range waiting {
		waiting[i] = dialRaw(t, srv)
		if i == 0 {
			writeFrames(t, waiting[i], uploadFrame(t, on0[i], i), Frame{Type: TStatsPull})
		} else {
			writeFrames(t, waiting[i], uploadFrame(t, on0[i], i))
		}
	}
	waitFor(t, "the uploads to fill shard 0's wait", func() bool { return sh0.waiting.Load() == queueDepth })

	devC := NewSimDevice(DefaultMasterKey, on1[0])
	sealedC, err := devC.SealRecords(core.MarshalRecords(deviceRecords(1)))
	if err != nil {
		t.Fatal(err)
	}
	queryCause := cause.MM(cause.Code(150 + 1%3))
	second := dialRaw(t, srv)
	writeFrames(t, second,
		uploadFrame(t, on0[queueDepth], queueDepth), // finds shard 0's wait full
		Frame{Type: TUpload, Payload: AppendSealedPayload(nil, on1[0], sealedC)},
		Frame{Type: TQuery, Payload: AppendQueryPayload(nil, on1[0], queryCause)},
		Frame{Type: TStatsPull},
		Frame{Type: TUpload, Payload: []byte{0}}, // malformed
		Frame{Type: TAck},                        // not a request
	)
	got := readFrames(t, bufio.NewReader(second), 6)
	checkTypes(t, "second connection", got, TRetryAfter, TAck, TSuggest, TStats, TErr, TErr)
	if m, ok, err := devC.OpenSuggest(got[2].Payload); err != nil || !ok || m.Code != queryCause.Code {
		t.Errorf("suggestion does not open for the asking device: %+v ok=%v err=%v", m, ok, err)
	}
	var st ServerStats
	if err := json.Unmarshal(got[3].Payload, &st); err != nil {
		t.Errorf("stats payload: %v", err)
	}
	if st.Backpressured != 1 || st.Uploads != 1 {
		t.Errorf("stats while shard 0 is held: backpressured=%d uploads=%d, want 1 and 1", st.Backpressured, st.Uploads)
	}

	sh0.lock.Unlock()
	locked = false
	checkTypes(t, "first connection", readFrames(t, bufio.NewReader(waiting[0]), 2), TAck, TStats)
	for i, c := range waiting[1:] {
		checkTypes(t, fmt.Sprintf("waiting connection %d", i+1), readFrames(t, bufio.NewReader(c), 1), TAck)
	}
}

// (b) Shutdown with requests read but unanswered answers every one of
// them, in order, before the connection closes; the drained model is the
// fold of exactly what was acknowledged.
func TestShutdownAnswersAcceptedRequests(t *testing.T) {
	const n = 24
	srv := quietServer(t, ServerConfig{Shards: 1, JournalDir: t.TempDir()})
	hook, entered, release := parkFirstSync()
	srv.syncHook = hook
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	baseline := core.Records{}
	var frames []Frame
	for i := 0; i < n; i++ {
		baseline.Merge(deviceRecords(i))
		frames = append(frames, uploadFrame(t, fmt.Sprintf("00121%010d", i), i))
	}
	conn := dialRaw(t, srv)
	writeFrames(t, conn, frames...)
	<-entered // the connection commits what it read; nothing is acked yet
	if got := srv.uploads.Load(); got != n {
		t.Fatalf("%d of %d pipelined uploads were read before the commit", got, n)
	}

	done := make(chan error, 1)
	go func() { done <- srv.Shutdown() }()
	waitFor(t, "the drain to begin", srv.draining.Load)
	close(release)

	br := bufio.NewReader(conn)
	checkTypes(t, "drained connection", readFrames(t, br, n), acks(n)...)
	if _, err := ReadFrame(br, DefaultMaxFrame); err != io.EOF {
		t.Fatalf("connection not closed cleanly after the last response: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.Uploads != n || st.Dropped != 0 {
		t.Fatalf("stats %+v", st)
	}
	if !bytes.Equal(srv.Model(), MarshalModel(baseline)) {
		t.Fatal("drained model is not the fold of the acknowledged uploads")
	}
}

// (c) Breaking a connection with requests in flight fails every one of
// them into a retry. The server had folded some before the break — their
// acks waited for the held fsync — and counts their retries as
// duplicates; the rest fold on the new connection, and the model is the
// sequential fold.
func TestBrokenConnectionRetriesAllInFlight(t *testing.T) {
	const n = 6
	srv := quietServer(t, ServerConfig{Shards: 1, JournalDir: t.TempDir()})
	hook, entered, release := parkFirstSync()
	srv.syncHook = hook
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Shutdown() }()
	cl := NewClient(ClientConfig{Addr: srv.Addr().String(), Conns: 1})
	defer cl.Close()

	baseline := core.Records{}
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		baseline.Merge(deviceRecords(i))
		up := uploadFrame(t, fmt.Sprintf("00122%010d", i), i)
		go func() {
			_, err := cl.do(context.Background(), "upload", up)
			errs <- err
		}()
	}
	<-entered // the connection commits what it folded; it reads no more
	waitFor(t, "every upload to be on the wire", func() bool { return cl.Frames() == n })
	folded := srv.uploads.Load()

	srv.connMu.Lock()
	for c := range srv.conns {
		_ = c.Close()
	}
	srv.connMu.Unlock()
	close(release)
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if cl.Redials() != 1 || cl.Retries() != n {
		t.Errorf("redials=%d retries=%d, want 1 and %d", cl.Redials(), cl.Retries(), n)
	}
	if st := srv.Stats(); folded == 0 || st.Uploads != n || st.Duplicates != folded {
		t.Errorf("uploads=%d duplicates=%d, want %d and the %d folded before the break (at least 1)", st.Uploads, st.Duplicates, n, folded)
	}
	if !bytes.Equal(srv.Model(), MarshalModel(baseline)) {
		t.Fatal("model differs from the sequential fold")
	}
}

// TestNoAckBeforeFsync holds the durability contract across connections.
// K connections pipeline uploads, reports and queries. While the first
// journal fsync is held, no ack of a record on the shard committing
// reaches any connection: the clients read every reply the server has
// handed to a Write by then (its counter of replies written), so a reply
// written before its commit is caught without a sleep. After the release
// the model is the sequential fold, in memory and journaled, and a
// journaled server killed and restarted replays to that fold.
func TestNoAckBeforeFsync(t *testing.T) {
	for _, shards := range []int{1, 3} {
		for _, journaled := range []bool{false, true} {
			t.Run(fmt.Sprintf("shards=%d/journaled=%v", shards, journaled), func(t *testing.T) {
				checkNoAckBeforeFsync(t, shards, journaled)
			})
		}
	}
}

func checkNoAckBeforeFsync(t *testing.T, shards int, journaled bool) {
	const conns, devicesPerConn = 4, 12
	cfg := ServerConfig{Shards: shards}
	if journaled {
		cfg.JournalDir = t.TempDir()
	}
	srv := quietServer(t, cfg)
	hook, entered, release := parkFirstSync()
	srv.syncHook = hook
	releaseOnce := sync.OnceFunc(func() { close(release) })
	defer releaseOnce()
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}

	// Each device uploads, reports and queries, pipelined on its
	// connection; home[k][i] is the shard of connection k's request i.
	baseline := core.Records{}
	wire := make([][]Frame, conns)
	home := make([][]int, conns)
	rep := report.FailureReport{Type: report.FailDNS, Direction: report.DirBoth, Domain: "ack.test"}
	for k := range conns {
		for d := range devicesPerConn {
			i := k*devicesPerConn + d
			dev := NewSimDevice(DefaultMasterKey, fmt.Sprintf("00124%010d", i))
			up, err := dev.SealRecords(core.MarshalRecords(deviceRecords(i)))
			if err != nil {
				t.Fatal(err)
			}
			sealedRep, err := dev.SealReport(rep.Marshal())
			if err != nil {
				t.Fatal(err)
			}
			baseline.Merge(deviceRecords(i))
			wire[k] = append(wire[k],
				Frame{Type: TUpload, Payload: AppendSealedPayload(nil, dev.IMSI, up)},
				Frame{Type: TReport, Payload: AppendSealedPayload(nil, dev.IMSI, sealedRep)},
				Frame{Type: TQuery, Payload: AppendQueryPayload(nil, dev.IMSI, cause.MM(cause.Code(150+i%3)))})
			sh := srv.homeShard(dev.IMSI).idx
			home[k] = append(home[k], sh, sh, sh)
		}
	}

	var (
		mu       sync.Mutex
		got      = make([][]Frame, conns)
		received atomic.Uint64
		readers  sync.WaitGroup
	)
	for k := range conns {
		c := dialRaw(t, srv)
		readers.Add(1)
		go func() {
			defer readers.Done()
			br := bufio.NewReader(c)
			for range wire[k] {
				f, err := ReadFrame(br, DefaultMaxFrame)
				if err != nil {
					t.Errorf("connection %d: %v", k, err)
					return
				}
				mu.Lock()
				got[k] = append(got[k], f)
				mu.Unlock()
				received.Add(1)
			}
		}()
		writeFrames(t, c, wire[k]...)
	}

	if journaled {
		parked := <-entered
		written := srv.responses.Load()
		waitFor(t, "every reply written so far to arrive", func() bool { return received.Load() >= written })
		mu.Lock()
		for k := range got {
			for i, f := range got[k] {
				if typ := wire[k][i].Type; typ != TQuery && home[k][i] == parked && f.Type == TAck {
					t.Errorf("connection %d was acked its %v (request %d) on shard %d while that shard's first fsync was held", k, typ, i, parked)
				}
			}
		}
		mu.Unlock()
		releaseOnce()
	}
	readers.Wait()
	for k := range got {
		for i, f := range got[k] {
			if want := map[FrameType]FrameType{TUpload: TAck, TReport: TAck, TQuery: TSuggest}[wire[k][i].Type]; f.Type != want {
				t.Errorf("connection %d request %d (%v) answered %v, want %v", k, i, wire[k][i].Type, f.Type, want)
			}
		}
	}
	want := MarshalModel(baseline)
	if !bytes.Equal(srv.Model(), want) {
		t.Fatal("model differs from the sequential fold")
	}
	if !journaled {
		if err := srv.Shutdown(); err != nil {
			t.Fatal(err)
		}
		return
	}
	srv.Kill()
	restarted, cl := startJournalServer(t, cfg)
	cl.Close()
	defer restarted.Kill()
	if !bytes.Equal(restarted.Model(), want) {
		t.Fatal("the restarted server's model differs from the sequential fold")
	}
}

// A duplicate's ack waits for the commit of the record it duplicates, and
// fails with it. The first connection's upload is held in its fsync, which
// is then made to fail; the same upload, sent again on a second connection
// meanwhile, is a duplicate of a record that never reached the disk, so
// both connections are answered TErr, and the shard acks nothing more.
func TestFailedFsyncFailsDuplicateAck(t *testing.T) {
	srv := quietServer(t, ServerConfig{Shards: 1, JournalDir: t.TempDir()})
	hook, entered, release := parkFirstSync()
	srv.syncHook = func(shard int) {
		hook(shard)
		_ = srv.shards[shard].jr.f.Close() // the fsync that follows fails
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Kill()
	releaseOnce := sync.OnceFunc(func() { close(release) })
	defer releaseOnce() // before the Kill, which waits for the parked commit
	up := uploadFrame(t, "001260000000001", 0)
	first, second := dialRaw(t, srv), dialRaw(t, srv)
	writeFrames(t, first, up)
	<-entered
	writeFrames(t, second, up)
	waitFor(t, "the resent upload to fold as a duplicate", func() bool { return srv.duplicates.Load() == 1 })
	releaseOnce()
	checkTypes(t, "first connection", readFrames(t, bufio.NewReader(first), 1), TErr)
	br := bufio.NewReader(second)
	checkTypes(t, "second connection (the duplicate)", readFrames(t, br, 1), TErr)
	writeFrames(t, second, uploadFrame(t, "001260000000002", 1))
	checkTypes(t, "degraded shard", readFrames(t, br, 1), TErr)
	if st := srv.Stats(); st.Uploads != 1 || st.Duplicates != 1 || st.JournalSyncs != 0 {
		t.Fatalf("uploads=%d duplicates=%d syncs=%d, want 1, 1 and 0", st.Uploads, st.Duplicates, st.JournalSyncs)
	}
}

// stubServer accepts connections and runs serve on each, numbered from 0.
func stubServer(t *testing.T, serve func(n int, c net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var conns []net.Conn
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := 0; ; n++ {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
			wg.Add(1)
			go func(n int) {
				defer wg.Done()
				serve(n, c)
			}(n)
		}
	}()
	t.Cleanup(func() {
		_ = ln.Close()
		mu.Lock()
		for _, c := range conns {
			_ = c.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
	return ln.Addr().String()
}

// serialEcho is a strictly one-frame-at-a-time server: it reads a request,
// answers it with the request's payload, and only then reads the next.
func serialEcho(c net.Conn) {
	br := bufio.NewReader(c)
	for {
		f, err := ReadFrame(br, DefaultMaxFrame)
		if err != nil {
			return
		}
		if _, err := c.Write(encodeFrames(Frame{Type: TModel, Payload: f.Payload})); err != nil {
			return
		}
	}
}

// (d) A cancelled caller returns at once and leaves the connection good:
// the next caller on it gets its own response, not the abandoned one.
func TestCancelledCallerAbandonsItsSlot(t *testing.T) {
	got, answer := make(chan Frame, 2), make(chan struct{}) // buffered: a failed test must not strand the stub
	addr := stubServer(t, func(_ int, c net.Conn) {
		br := bufio.NewReader(c)
		for i := 0; i < 2; i++ {
			f, err := ReadFrame(br, DefaultMaxFrame)
			if err != nil {
				return
			}
			got <- f
		}
		<-answer
		_, _ = c.Write(encodeFrames(
			Frame{Type: TModel, Payload: []byte("first")}, Frame{Type: TModel, Payload: []byte("second")}))
	})
	cl := NewClient(ClientConfig{Addr: addr, Conns: 1})
	defer cl.Close()

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := cl.do(ctx, "model", Frame{Type: TModelPull, Payload: []byte{1}})
		errc <- err
	}()
	<-got // the first request is on the wire and will stay unanswered
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled caller returned %v", err)
	}

	respc := make(chan Frame, 1)
	go func() {
		resp, err := cl.do(context.Background(), "model", Frame{Type: TModelPull, Payload: []byte{2}})
		if err != nil {
			t.Error(err)
		}
		respc <- resp
	}()
	if f := <-got; !bytes.Equal(f.Payload, []byte{2}) {
		t.Fatalf("second request carries %x", f.Payload)
	}
	close(answer)
	if resp := <-respc; string(resp.Payload) != "second" {
		t.Fatalf("second caller was handed %q", resp.Payload)
	}
	if cl.Redials() != 0 || cl.Retries() != 0 {
		t.Fatalf("redials=%d retries=%d after a cancellation", cl.Redials(), cl.Retries())
	}
}

// (e) The multiplexing client against a strictly serial server: many
// callers on one connection, each handed exactly its own echo.
func TestMuxClientAgainstSerialServer(t *testing.T) {
	addr := stubServer(t, func(_ int, c net.Conn) { serialEcho(c) })
	cl := NewClient(ClientConfig{Addr: addr, Conns: 1})
	defer cl.Close()
	const callers, each = 16, 40
	var wg sync.WaitGroup
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				want := []byte(fmt.Sprintf("%d/%d", w, i))
				resp, err := cl.do(context.Background(), "echo", Frame{Type: TModelPull, Payload: want})
				if err != nil || !bytes.Equal(resp.Payload, want) {
					t.Errorf("caller %d request %d: got %q, %v", w, i, resp.Payload, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if cl.Frames() != callers*each || cl.Writes() > cl.Frames() || cl.Redials() != 0 {
		t.Fatalf("frames=%d writes=%d redials=%d", cl.Frames(), cl.Writes(), cl.Redials())
	}
}

// (e) Callers that arrive while a connection's write is forming share that
// write. A lone caller on each of two idle connections writes at once,
// round-robin. Then one caller's writer is parked in its gathering window:
// the k-1 callers after it all queue on its connection, not on the idle
// one, and when it is released one write carries all k frames, each
// caller handed its own echo.
func TestCallersShareFormingWrite(t *testing.T) {
	const k = 6
	var dialed atomic.Int32
	addr := stubServer(t, func(_ int, c net.Conn) {
		dialed.Add(1)
		serialEcho(c)
	})
	cl := NewClient(ClientConfig{Addr: addr, Conns: 2})
	defer cl.Close()
	var park atomic.Bool
	entered, release := make(chan struct{}), make(chan struct{})
	cl.gatherHook = func() {
		if park.CompareAndSwap(true, false) {
			close(entered)
			<-release
		}
	}
	for i := 0; i < 2; i++ {
		want := []byte{byte(i)}
		if resp, err := cl.do(context.Background(), "echo", Frame{Type: TModelPull, Payload: want}); err != nil || !bytes.Equal(resp.Payload, want) {
			t.Fatalf("lone request %d: %q %v", i, resp.Payload, err)
		}
	}
	if n, w, f := dialed.Load(), cl.Writes(), cl.Frames(); n != 2 || w != 2 || f != 2 {
		t.Fatalf("two lone requests: %d connections, %d writes, %d frames; want 2 of each", n, w, f)
	}

	frames0, writes0 := cl.Frames(), cl.Writes()
	park.Store(true)
	errs := make(chan error, k)
	call := func(w int) {
		want := []byte(fmt.Sprintf("caller %d", w))
		resp, err := cl.do(context.Background(), "echo", Frame{Type: TModelPull, Payload: want})
		if err == nil && !bytes.Equal(resp.Payload, want) {
			err = fmt.Errorf("caller %d was handed %q", w, resp.Payload)
		}
		errs <- err
	}
	go call(0)
	<-entered
	for w := 1; w < k; w++ {
		go call(w)
	}
	waitFor(t, "every frame to be pending", func() bool { return cl.Frames()-frames0 == k })
	close(release)
	for w := 0; w < k; w++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	if writes := cl.Writes() - writes0; writes != 1 {
		t.Errorf("%d frames queued while a write was forming left in %d writes, want 1", k, writes)
	}
	if cl.Redials() != 0 || cl.Retries() != 0 || dialed.Load() != 2 {
		t.Errorf("redials=%d retries=%d connections=%d", cl.Redials(), cl.Retries(), dialed.Load())
	}
}

// (e) A strictly serial write-one-frame/ReadFrame caller against the
// pipelining server is the depth-one case of the same protocol.
func TestSerialCallerAgainstPipelinedServer(t *testing.T) {
	srv := quietServer(t, ServerConfig{Shards: 2})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Shutdown() }()
	conn := dialRaw(t, srv)
	br := bufio.NewReader(conn)
	baseline := core.Records{}
	for i := 0; i < 20; i++ {
		baseline.Merge(deviceRecords(i))
		if _, err := conn.Write(encodeFrames(uploadFrame(t, fmt.Sprintf("00123%010d", i), i))); err != nil {
			t.Fatal(err)
		}
		if f, err := ReadFrame(br, DefaultMaxFrame); err != nil || f.Type != TAck {
			t.Fatalf("upload %d: %v %v", i, f.Type, err)
		}
	}
	if _, err := conn.Write(encodeFrames(Frame{Type: TModelPull})); err != nil {
		t.Fatal(err)
	}
	f, err := ReadFrame(br, DefaultMaxFrame)
	if err != nil || f.Type != TModel || !bytes.Equal(f.Payload, MarshalModel(baseline)) {
		t.Fatalf("model pull: %v %v", f.Type, err)
	}
}

// (e) A response stream corrupted the way seedload's lossy proxy corrupts
// it — one bit flipped on the way to the client — never hands a caller
// another caller's response. A flip that derails the framing is caught by
// the next header's check: the connection breaks and everything in flight
// on it is retried.
func TestCorruptedResponseStreamBreaksConnection(t *testing.T) {
	const callers = 4
	for _, tc := range []struct {
		name string
		at   int // byte of the second response's header whose low bit flips
	}{{"magic0", 0}, {"magic1", 1}, {"version", 2}, {"length", 7}} {
		t.Run(tc.name, func(t *testing.T) {
			addr := stubServer(t, func(n int, c net.Conn) {
				if n > 0 {
					serialEcho(c) // the redialed connection is clean
					return
				}
				br := bufio.NewReader(c)
				var wire []byte
				for i := 0; i < callers; i++ {
					f, err := ReadFrame(br, DefaultMaxFrame)
					if err != nil {
						return
					}
					start := len(wire)
					wire = AppendFrame(wire, Frame{Type: TModel, Payload: f.Payload})
					if i == 1 {
						wire[start+tc.at] ^= 0x01
					}
				}
				_, _ = c.Write(wire)
				_, _ = io.Copy(io.Discard, c)
			})
			cl := NewClient(ClientConfig{Addr: addr, Conns: 1})
			defer cl.Close()
			var wg sync.WaitGroup
			for w := 0; w < callers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					sent := []byte(fmt.Sprintf("%d-request", w))
					resp, err := cl.do(context.Background(), "echo", Frame{Type: TModelPull, Payload: sent})
					// A flipped length may shorten the caller's own echo;
					// it can never turn it into someone else's.
					if err != nil || len(resp.Payload) == 0 || !bytes.HasPrefix(sent, resp.Payload) {
						t.Errorf("caller %d was handed %q, %v", w, resp.Payload, err)
					}
				}(w)
			}
			wg.Wait()
			if cl.Redials() != 1 || cl.Retries() == 0 {
				t.Errorf("redials=%d retries=%d: the corruption went unnoticed", cl.Redials(), cl.Retries())
			}
		})
	}
}

// (f) A response nobody asked for breaks the connection with an error; the
// next request goes out on a fresh one.
func TestSurplusResponseBreaksConnection(t *testing.T) {
	addr := stubServer(t, func(n int, c net.Conn) {
		if n > 0 {
			serialEcho(c)
			return
		}
		f, err := ReadFrame(bufio.NewReader(c), DefaultMaxFrame)
		if err != nil {
			return
		}
		echo := Frame{Type: TModel, Payload: f.Payload}
		_, _ = c.Write(encodeFrames(echo, echo))
		_, _ = io.Copy(io.Discard, c)
	})
	cl := NewClient(ClientConfig{Addr: addr, Conns: 1})
	defer cl.Close()
	for i, wantRedials := range []uint64{1, 1} {
		want := []byte{byte(i)}
		if resp, err := cl.do(context.Background(), "echo", Frame{Type: TModelPull, Payload: want}); err != nil || !bytes.Equal(resp.Payload, want) {
			t.Fatalf("request %d: %q %v", i, resp.Payload, err)
		}
		waitFor(t, "the surplus frame to break the connection", func() bool { return cl.Redials() == wantRedials })
	}
	if cl.Retries() != 0 {
		t.Fatalf("retries=%d: a request was in flight when the surplus frame arrived", cl.Retries())
	}
}

// checkMuxReader feeds data to a multiplexed connection's reader as the
// response stream for k requests queued in a known order. Whatever the
// bytes, the i-th request gets exactly the i-th frame a plain sequential
// ReadFrame decodes from them, and every request past the first error (or
// the end of the stream) fails: no panic, no response handed to the wrong
// waiter.
func checkMuxReader(t *testing.T, data []byte) {
	const k = 4
	var want []Frame
	for rd := bytes.NewReader(data); len(want) < k; {
		f, err := ReadFrame(rd, DefaultMaxFrame)
		if err != nil {
			break
		}
		want = append(want, f)
	}

	near, far := net.Pipe()
	cl := NewClient(ClientConfig{Addr: "unused", Conns: 1})
	mc := cl.newMuxConn(near)
	type result struct {
		f   Frame
		err error
	}
	results := make([]chan result, k)
	for i := range results {
		results[i] = make(chan result, 1)
		go func(i int) {
			f, err := mc.roundTrip(context.Background(), Frame{Type: TModelPull, Payload: []byte{byte(i)}})
			results[i] <- result{f, err}
		}(i)
		// The pipe is synchronous: once request i has been read here it is
		// queued, so request i+1 queues behind it.
		if f, err := ReadFrame(far, DefaultMaxFrame); err != nil || !bytes.Equal(f.Payload, []byte{byte(i)}) {
			t.Fatalf("request %d did not arrive: %x %v", i, f.Payload, err)
		}
	}
	_, _ = far.Write(data) // fails early when the reader gave up on the stream
	_ = far.Close()
	for i, ch := range results {
		r := <-ch
		switch {
		case i < len(want) && (r.err != nil || r.f.Type != want[i].Type || !bytes.Equal(r.f.Payload, want[i].Payload)):
			t.Fatalf("request %d got (%v, %d bytes, %v), want frame %d of the stream (%v, %d bytes)",
				i, r.f.Type, len(r.f.Payload), r.err, i, want[i].Type, len(want[i].Payload))
		case i >= len(want) && r.err == nil:
			t.Fatalf("request %d got %v although the stream holds only %d good frames", i, r.f.Type, len(want))
		}
	}
	cl.Close()
}
