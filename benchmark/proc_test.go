package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestStartDaemonWaitsForTheReadyLineAndStopReaps(t *testing.T) {
	cmd := exec.Command("sh", "-c", `echo "fake: listening on 127.0.0.1:4242 (2 shards)" >&2; exec sleep 30`)
	ch, addr, err := startDaemon(cmd, "listening on ", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if addr != "127.0.0.1:4242" {
		t.Errorf("addr = %q", addr)
	}
	if err := ch.stop(5 * time.Second); err == nil || strings.Contains(err.Error(), "killed") {
		// sleep dies of SIGTERM: Wait reports the signal, but within the grace.
		t.Errorf("stop = %v, want the SIGTERM exit status", err)
	}
	select {
	case <-ch.done:
	default:
		t.Error("stop returned before the process was reaped")
	}
	leftovers.mu.Lock()
	n := len(leftovers.children)
	leftovers.mu.Unlock()
	if n != 0 {
		t.Errorf("%d children still registered", n)
	}
}

func TestStartDaemonFailsWhenNeverReady(t *testing.T) {
	start := time.Now()
	_, _, err := startDaemon(exec.Command("sleep", "30"), "listening on ", 200*time.Millisecond)
	if !errors.Is(err, errNotReady) {
		t.Fatalf("err = %v, want errNotReady", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Error("a silent daemon was waited for too long")
	}
	_, _, err = startDaemon(exec.Command("sh", "-c", "echo nope >&2; exit 3"), "listening on ", 5*time.Second)
	if err == nil || !strings.Contains(err.Error(), "nope") {
		t.Errorf("err = %v, want the exit and the daemon's last words", err)
	}
}

func TestStopKillsAProcessThatIgnoresSIGTERM(t *testing.T) {
	cmd := exec.Command("sh", "-c", `trap "" TERM; echo "listening on x" >&2; while :; do sleep 1; done`)
	ch, _, err := startDaemon(cmd, "listening on ", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := ch.stop(300 * time.Millisecond); err == nil || !strings.Contains(err.Error(), "killed") {
		t.Errorf("stop = %v, want a kill after the grace period", err)
	}
}

func TestSweepRemovesTempDirsAndChildren(t *testing.T) {
	base := t.TempDir()
	d, err := tempDir(filepath.Join(base, "nested"), "journal-")
	if err != nil {
		t.Fatal(err)
	}
	ch, err := startChild(exec.Command("sleep", "30"), nil)
	if err != nil {
		t.Fatal(err)
	}
	leftovers.sweep()
	if _, err := os.Stat(d); !os.IsNotExist(err) {
		t.Errorf("temp dir survived the sweep: %v", err)
	}
	select {
	case <-ch.done:
	case <-time.After(5 * time.Second):
		t.Error("child survived the sweep")
	}
}

func TestTracerSpansNestAndShareGroups(t *testing.T) {
	var none *tracer
	if id := none.add(0, "", "x", time.Now(), time.Now(), nil); id != 0 {
		t.Error("a nil tracer must record nothing")
	}
	_, done := none.open(0, "", "x", nil)
	done()

	tr := newTracer()
	passID, closePass := tr.open(0, "", "pass", nil)
	now := time.Now()
	cell := tr.add(passID, "cell-0", "cell", now, now.Add(time.Millisecond), map[string]string{"mode": "legacy"})
	closePass()
	if passID != 1 || cell != 2 || tr.spans[1].Parent != passID || tr.spans[1].Group != "cell-0" {
		t.Errorf("spans = %+v", tr.spans)
	}
	if tr.spans[0].EndNS < tr.spans[0].StartNS || tr.spans[1].EndNS-tr.spans[1].StartNS != int64(time.Millisecond) {
		t.Errorf("span times wrong: %+v", tr.spans)
	}
	path := filepath.Join(t.TempDir(), "sub", "trace.json")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil || !strings.Contains(string(blob), `"name":"cell"`) {
		t.Errorf("span file: %v %s", err, blob)
	}
}

// The disk probe appends and syncs, and every unit takes some time.
func TestDiskProbeUnit(t *testing.T) {
	p, err := openDiskProbe(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer p.close()
	if d, err := p.unit(); err != nil || d <= 0 {
		t.Errorf("unit = %v, %v, want a positive duration and no error", d, err)
	}
}
