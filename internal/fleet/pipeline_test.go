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
	"testing"
	"time"

	"github.com/seed5g/seed/internal/cause"
	"github.com/seed5g/seed/internal/core"
)

// The pipelining contract's tests. None of them sleeps for an outcome:
// where a test needs the server in a known state it parks a shard worker
// (on the shard's model lock, or in the journal's fsync hook) and waits
// for the state itself with waitFor.

// waitFor polls cond until it holds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(20 * time.Second); !cond(); time.Sleep(50 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

func quietServer(t *testing.T, cfg ServerConfig) *Server {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	cfg.Logf = func(string, ...any) {}
	return NewServer(cfg)
}

func dialRaw(t *testing.T, srv *Server) net.Conn {
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
// sees until release is closed, and the channel that announces it.
func parkFirstSync() (hook func(), entered, release chan struct{}) {
	entered, release = make(chan struct{}), make(chan struct{})
	var first sync.Once
	return func() {
		first.Do(func() {
			close(entered)
			<-release
		})
	}, entered, release
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

// (a) Mixed frames written in one Write are answered in request order,
// although they become ready out of order: the first waits for a parked
// shard while the refusal, the other shard's work and the inline answers
// behind it are ready at once.
func TestPipelineAnswersInRequestOrder(t *testing.T) {
	srv := quietServer(t, ServerConfig{Shards: 2, QueueDepth: 1})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Shutdown() }()
	on0, on1 := imsisOnShard(srv, 0, 3), imsisOnShard(srv, 1, 1)
	sh0 := srv.shards[0]

	// Park shard 0's worker inside a job of its own, holding nothing else.
	sh0.mu.Lock()
	up := uploadFrame(t, on0[0], 0)
	_, sealed, _ := ParseSealedPayload(up.Payload)
	parked := srv.submit(job{typ: TUpload, imsi: on0[0], body: sealed})
	waitFor(t, "shard 0's worker to take the parking job", func() bool { return len(sh0.queue) == 0 })

	devC := NewSimDevice(DefaultMasterKey, on1[0])
	sealedC, err := devC.SealRecords(core.MarshalRecords(deviceRecords(1)))
	if err != nil {
		t.Fatal(err)
	}
	queryCause := cause.MM(cause.Code(150 + 1%3))
	conn := dialRaw(t, srv)
	if _, err := conn.Write(encodeFrames(
		uploadFrame(t, on0[1], 1), // fills shard 0's one-deep queue
		uploadFrame(t, on0[2], 2), // finds it full
		Frame{Type: TUpload, Payload: AppendSealedPayload(nil, on1[0], sealedC)},
		Frame{Type: TQuery, Payload: AppendQueryPayload(nil, on1[0], queryCause)}, // reads every shard's model
		Frame{Type: TStatsPull},
		Frame{Type: TUpload, Payload: []byte{0}}, // malformed
		Frame{Type: TAck},                        // not a request
	)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "all seven requests to be dispatched", func() bool { return srv.nErrors.Load() == 2 })
	if n := srv.backpressured.Load(); n != 1 {
		t.Fatalf("backpressured = %d, want 1", n)
	}
	sh0.mu.Unlock()

	br := bufio.NewReader(conn)
	var got []Frame
	for len(got) < 7 {
		f, err := ReadFrame(br, DefaultMaxFrame)
		if err != nil {
			t.Fatalf("after %d responses: %v", len(got), err)
		}
		got = append(got, f)
	}
	for i, want := range []FrameType{TAck, TRetryAfter, TAck, TSuggest, TStats, TErr, TErr} {
		if got[i].Type != want {
			t.Errorf("response %d is %v, want %v", i, got[i].Type, want)
		}
	}
	if m, ok, err := devC.OpenSuggest(got[3].Payload); err != nil || !ok || m.Code != queryCause.Code {
		t.Errorf("suggestion does not open for the asking device: %+v ok=%v err=%v", m, ok, err)
	}
	var st ServerStats
	if err := json.Unmarshal(got[4].Payload, &st); err != nil {
		t.Errorf("stats payload: %v", err)
	}
	if f := <-parked; f.Type != TAck {
		t.Errorf("parking job answered %v", f.Type)
	}
}

// (b) Shutdown with requests accepted but unanswered answers every one of
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
	if _, err := conn.Write(encodeFrames(frames...)); err != nil {
		t.Fatal(err)
	}
	<-entered // the worker is parked before its first fsync; nothing is acked yet
	sh := srv.shards[0]
	inBatch := len(sh.batchBuf)
	waitFor(t, "the rest to be accepted", func() bool { return len(sh.queue) == n-inBatch })

	done := make(chan error, 1)
	go func() { done <- srv.Shutdown() }()
	waitFor(t, "the drain to begin", srv.draining.Load)
	close(release)

	br := bufio.NewReader(conn)
	for i := 0; i < n; i++ {
		if f, err := ReadFrame(br, DefaultMaxFrame); err != nil || f.Type != TAck {
			t.Fatalf("response %d of %d accepted requests: %v %v", i, n, f.Type, err)
		}
	}
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

// (c) Killing a connection with several requests in flight fails all of
// them into retries; the server had folded them already, so every re-sent
// one is a duplicate and the model stays the sequential fold.
func TestBrokenConnectionRetriesAllInFlight(t *testing.T) {
	const n = 6
	srv := quietServer(t, ServerConfig{Shards: 1, JournalDir: t.TempDir()})
	hook, entered, release := parkFirstSync()
	srv.syncHook = hook
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Shutdown() }()
	cl := NewClient(ClientConfig{Addr: srv.Addr().String(), Conns: 1, BackoffBase: time.Millisecond})
	defer cl.Close()

	baseline := core.Records{}
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		baseline.Merge(deviceRecords(i))
		up := uploadFrame(t, fmt.Sprintf("00122%010d", i), i)
		go func() {
			_, err := cl.Do("upload", up)
			errs <- err
		}()
	}
	<-entered
	sh := srv.shards[0]
	inBatch := len(sh.batchBuf)
	waitFor(t, "all uploads to be accepted", func() bool { return len(sh.queue) == n-inBatch })

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
	if st := srv.Stats(); st.Uploads != n || st.Duplicates != n {
		t.Errorf("uploads=%d duplicates=%d, want %d and %d", st.Uploads, st.Duplicates, n, n)
	}
	if !bytes.Equal(srv.Model(), MarshalModel(baseline)) {
		t.Fatal("model differs from the sequential fold")
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
	cl := NewClient(ClientConfig{Addr: addr, Conns: 1, RequestTimeout: time.Minute})
	defer cl.Close()

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := cl.DoCtx(ctx, "model", Frame{Type: TModelPull, Payload: []byte{1}})
		errc <- err
	}()
	<-got // the first request is on the wire and will stay unanswered
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled caller returned %v", err)
	}

	respc := make(chan Frame, 1)
	go func() {
		resp, err := cl.Do("model", Frame{Type: TModelPull, Payload: []byte{2}})
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
				resp, err := cl.Do("echo", Frame{Type: TModelPull, Payload: want})
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
			cl := NewClient(ClientConfig{Addr: addr, Conns: 1, BackoffBase: time.Millisecond})
			defer cl.Close()
			var wg sync.WaitGroup
			for w := 0; w < callers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					sent := []byte(fmt.Sprintf("%d-request", w))
					resp, err := cl.Do("echo", Frame{Type: TModelPull, Payload: sent})
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
		if resp, err := cl.Do("echo", Frame{Type: TModelPull, Payload: want}); err != nil || !bytes.Equal(resp.Payload, want) {
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
func checkMuxReader(t *testing.T, data []byte, maxFrame uint32) {
	const k = 4
	var want []Frame
	for rd := bytes.NewReader(data); len(want) < k; {
		f, err := ReadFrame(rd, maxFrame)
		if err != nil {
			break
		}
		want = append(want, f)
	}

	near, far := net.Pipe()
	cl := NewClient(ClientConfig{Addr: "unused", Conns: 1, MaxFrame: maxFrame})
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
		if f, err := ReadFrame(far, maxFrame); err != nil || !bytes.Equal(f.Payload, []byte{byte(i)}) {
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
