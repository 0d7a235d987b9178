package fleet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"
)

// TestClientRetryCapBounded points a client at a port nobody answers and
// checks the retry loop gives up after exactly maxRetries+1 attempts with
// an error that says so — not an unbounded spin. Its backoffs sum to
// between 0.8 and 1.7 s.
func TestClientRetryCapBounded(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close() // nothing listens here any more

	cl := NewClient(ClientConfig{Addr: addr, Conns: 1})
	defer cl.Close()
	start := time.Now()
	_, err = cl.Do("upload", Frame{Type: TStatsPull})
	if err == nil {
		t.Fatal("request to dead address succeeded")
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("after %d attempts", maxRetries+1)) {
		t.Fatalf("error does not report the attempt cap: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("bounded retry took %v", elapsed)
	}
}

// TestClientContextCancelDuringBackoff cancels mid-retry-loop: DoCtx must
// return promptly with the context error even though the server address
// is unreachable and backoff would otherwise keep sleeping (0.8 s at
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
	_, err = cl.DoCtx(ctx, "upload", Frame{Type: TStatsPull})
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
	_, err = cl.DoCtx(ctx, "upload", Frame{Type: TStatsPull})
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
	resp, err := cl.DoCtx(ctx, "stats", Frame{Type: TStatsPull})
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
	if _, err := cl.DoCtx(ctx, "upload", Frame{Type: TStatsPull}); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}
