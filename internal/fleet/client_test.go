package fleet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestClientRetryCapBounded points a client at a server that accepts every
// connection and closes it at once, and checks the request loop gives up
// after exactly maxRetries+1 attempts, one dial each, with an error that
// says so — not an unbounded spin. Its eight backoffs (none follows the
// ninth attempt) sum to between 567.5 ms and 1 135 ms: half to all of
// 5+10+…+320+500 ms; the window allows 65 ms above that for the dials.
func TestClientRetryCapBounded(t *testing.T) {
	var dials atomic.Int64
	dead := stubServer(t, func(_ int, c net.Conn) {
		dials.Add(1)
		_ = c.Close()
	})
	cl := NewClient(ClientConfig{Addr: dead, Conns: 1})
	start := time.Now()
	err := cl.UploadRecords("001190000000000", []byte("sealed"))
	elapsed := time.Since(start)
	cl.Close()
	if err == nil {
		t.Fatal("upload to a dead server succeeded")
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("after %d attempts", maxRetries+1)) {
		t.Fatalf("error does not report the attempt cap: %v", err)
	}
	if n := dials.Load(); n != maxRetries+1 {
		t.Errorf("the dead server took %d connections, want %d", n, maxRetries+1)
	}
	if elapsed < 567500*time.Microsecond || elapsed > 1200*time.Millisecond {
		t.Errorf("gave up after %v, want 567.5 ms to 1.2 s", elapsed)
	}
}

// TestClientNoBackoffAfterLastAttempt checks that the request loop returns
// as soon as its last attempt fails: the dead server records when it
// accepts each connection, and the upload's error comes back less than
// 100 ms after the ninth. A backoff after the last attempt would add
// 250-500 ms.
func TestClientNoBackoffAfterLastAttempt(t *testing.T) {
	var mu sync.Mutex
	var accepted []time.Time
	dead := stubServer(t, func(_ int, c net.Conn) {
		mu.Lock()
		accepted = append(accepted, time.Now())
		mu.Unlock()
		_ = c.Close()
	})
	cl := NewClient(ClientConfig{Addr: dead, Conns: 1})
	err := cl.UploadRecords("001190000000000", []byte("sealed"))
	done := time.Now()
	cl.Close()
	if err == nil {
		t.Fatal("upload to a dead server succeeded")
	}
	mu.Lock()
	n := len(accepted)
	var last time.Time
	if n > 0 {
		last = accepted[n-1]
	}
	mu.Unlock()
	if n != maxRetries+1 {
		t.Fatalf("the dead server took %d connections, want %d", n, maxRetries+1)
	}
	if gap := done.Sub(last); gap >= 100*time.Millisecond {
		t.Errorf("the upload returned %v after the last connection, want under 100 ms", gap)
	}
}

// TestClientContextCancelDuringBackoff cancels mid-retry-loop: do must
// return promptly with the context error even though the server address
// is unreachable and backoff would otherwise keep sleeping (567.5 ms at
// least before the attempts run out).
func TestClientContextCancelDuringBackoff(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close()

	cl := NewClient(ClientConfig{Addr: addr, Conns: 1})
	defer cl.Close()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = cl.do(ctx, "upload", Frame{Type: TStatsPull})
	if err == nil {
		t.Fatal("cancelled request succeeded")
	}
	if !errors.Is(err, context.Canceled) && !strings.Contains(err.Error(), "cancel") {
		t.Fatalf("want a cancellation error, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("cancellation took %v to take effect", elapsed)
	}
}

// TestClientContextCancelMidRead cancels while the exchange is blocked
// waiting for a response that will never come (the "server" accepts and
// goes silent). The AfterFunc deadline poke must unblock the read: the
// cancellation, not the 10 s request timeout, ends this.
func TestClientContextCancelMidRead(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ln.Close() }()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			// Swallow the request, never answer.
			go func() {
				buf := make([]byte, 4096)
				for {
					if _, err := c.Read(buf); err != nil {
						_ = c.Close()
						return
					}
				}
			}()
		}
	}()

	cl := NewClient(ClientConfig{Addr: ln.Addr().String(), Conns: 1})
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = cl.do(ctx, "upload", Frame{Type: TStatsPull})
	if err == nil {
		t.Fatal("request with silent server succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancel mid-read took %v", elapsed)
	}
	if !errors.Is(err, context.DeadlineExceeded) && !strings.Contains(err.Error(), "deadline") && !strings.Contains(err.Error(), "cancel") {
		t.Fatalf("want context error, got %v", err)
	}
}

// TestClientDoCtxHappyPath: a live server answers normally through the
// context-aware path.
func TestClientDoCtxHappyPath(t *testing.T) {
	_, cl := startServer(t, ServerConfig{Shards: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	resp, err := cl.do(ctx, "stats", Frame{Type: TStatsPull})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Type != TStats {
		t.Fatalf("got %v", resp.Type)
	}
}

// TestClientPreCancelledContext never touches the network.
func TestClientPreCancelledContext(t *testing.T) {
	cl := NewClient(ClientConfig{Addr: "127.0.0.1:1", Conns: 1})
	defer cl.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cl.do(ctx, "upload", Frame{Type: TStatsPull}); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}
