package fleet

import (
	"bufio"
	"net"
	"os"
	"syscall"
	"testing"
	"time"
)

// flakyListener fails its first Accept the way a process out of file
// descriptors does, then accepts normally.
type flakyListener struct {
	net.Listener
	failed bool
}

func (l *flakyListener) Accept() (net.Conn, error) {
	if !l.failed {
		l.failed = true
		return nil, &net.OpError{Op: "accept", Net: "tcp", Err: os.NewSyscallError("accept", syscall.EMFILE)}
	}
	return l.Listener.Accept()
}

// TestAcceptSurvivesTransientError: one failed Accept does not end the accept
// loop. A client that connects afterwards is served, and Shutdown still ends
// the loop.
func TestAcceptSurvivesTransientError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var logged []string
	srv := NewServer(ServerConfig{Shards: 1, Logf: func(format string, _ ...any) { logged = append(logged, format) }})
	srv.serve(&flakyListener{Listener: ln})

	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write(AppendFrame(nil, Frame{Type: TStatsPull})); err != nil {
		t.Fatal(err)
	}
	_ = c.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := ReadFrame(bufio.NewReader(c), DefaultMaxFrame); err != nil {
		t.Fatalf("no answer after a transient accept error: %v", err)
	}

	done := make(chan struct{})
	go func() {
		_ = srv.Shutdown()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown did not end the accept loop")
	}
	if len(logged) == 0 {
		t.Error("the transient accept error was not logged")
	}
}
