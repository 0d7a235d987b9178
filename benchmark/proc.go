package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"
)

// cleanup tracks what the run must not leave behind: child processes and
// temporary directories. Workloads release their own on the normal path;
// the registry is the backstop for an error return or a signal.
type cleanup struct {
	mu       sync.Mutex
	children map[*child]struct{}
	dirs     map[string]struct{}
}

var leftovers = &cleanup{children: map[*child]struct{}{}, dirs: map[string]struct{}{}}

// sweep kills every registered child, waits for it, and removes every
// registered directory.
func (c *cleanup) sweep() {
	c.mu.Lock()
	children := make([]*child, 0, len(c.children))
	for ch := range c.children {
		children = append(children, ch)
	}
	dirs := make([]string, 0, len(c.dirs))
	for d := range c.dirs {
		dirs = append(dirs, d)
	}
	c.mu.Unlock()
	for _, ch := range children {
		ch.kill()
	}
	for _, d := range dirs {
		removeTemp(d)
	}
}

// tempDir creates a fresh directory under base (created if missing) and
// registers it for removal.
func tempDir(base, pattern string) (string, error) {
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	d, err := os.MkdirTemp(base, pattern)
	if err != nil {
		return "", err
	}
	leftovers.mu.Lock()
	leftovers.dirs[d] = struct{}{}
	leftovers.mu.Unlock()
	return d, nil
}

func removeTemp(dir string) {
	_ = os.RemoveAll(dir) // best effort: a leftover directory is reported by git status, not fatal
	leftovers.mu.Lock()
	delete(leftovers.dirs, dir)
	leftovers.mu.Unlock()
}

// child is a started process whose exit is always waited for.
type child struct {
	cmd    *exec.Cmd
	done   chan struct{} // closed once Wait returned
	err    error         // Wait's result, valid after done
	stderr *lineTail
}

// startChild starts cmd with its stderr scanned line by line: every line
// is kept in a short tail for error messages and passed to onLine (may be
// nil). The process is registered until it has been waited for.
func startChild(cmd *exec.Cmd, onLine func(string)) (*child, error) {
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	ch := &child{cmd: cmd, done: make(chan struct{}), stderr: &lineTail{}}
	leftovers.mu.Lock()
	leftovers.children[ch] = struct{}{}
	leftovers.mu.Unlock()
	go func() {
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			ch.stderr.add(sc.Text())
			if onLine != nil {
				onLine(sc.Text())
			}
		}
		_, _ = io.Copy(io.Discard, pipe) // an over-long line stops the scanner; keep draining so the child never blocks
		ch.err = cmd.Wait()
		leftovers.mu.Lock()
		delete(leftovers.children, ch)
		leftovers.mu.Unlock()
		close(ch.done)
	}()
	return ch, nil
}

// stop asks the process to exit with SIGTERM, waits up to grace, then
// kills it. It returns once the process has been reaped.
func (ch *child) stop(grace time.Duration) error {
	_ = ch.cmd.Process.Signal(syscall.SIGTERM) // already exited: Wait below reports it
	select {
	case <-ch.done:
		return ch.err
	case <-time.After(grace):
		ch.kill()
		return fmt.Errorf("%s did not exit within %v of SIGTERM; killed", ch.cmd.Path, grace)
	}
}

// kill sends SIGKILL and waits for the process to be reaped.
func (ch *child) kill() {
	_ = ch.cmd.Process.Kill() // already exited: nothing to kill
	<-ch.done
}

// usage returns the reaped process's CPU time and peak resident set.
func (ch *child) usage() (cpu time.Duration, peakRSSMB float64) {
	ps := ch.cmd.ProcessState
	if ps == nil {
		return 0, 0
	}
	cpu = ps.UserTime() + ps.SystemTime()
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		peakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return cpu, peakRSSMB
}

// selfCPU returns this process's user + system CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// residentMB returns this process's current resident set, from
// /proc/self/statm (0 where that does not exist).
func residentMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	var size, resident int64
	if _, err := fmt.Sscan(string(b), &size, &resident); err != nil {
		return 0
	}
	return float64(resident*int64(os.Getpagesize())) / (1 << 20)
}

// stolenSeconds returns the time the hypervisor has taken from this
// guest's CPUs since boot (the steal column of /proc/stat), 0 where the
// kernel does not account it.
func stolenSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	f := strings.Fields(strings.SplitN(string(b), "\n", 2)[0])
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	var ticks float64
	if _, err := fmt.Sscan(f[8], &ticks); err != nil {
		return 0
	}
	return ticks / 100 // USER_HZ is 100 on every Linux ABI
}

// lineTail keeps the last few lines a child wrote, for error messages.
type lineTail struct {
	mu    sync.Mutex
	lines []string
}

func (t *lineTail) add(s string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lines = append(t.lines, s)
	if len(t.lines) > 8 {
		t.lines = t.lines[len(t.lines)-8:]
	}
}

func (t *lineTail) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.Join(t.lines, "\n")
}

// errNotReady is returned when a daemon printed no ready line in time.
var errNotReady = errors.New("daemon not ready in time")

// startDaemon starts cmd and waits until a stderr line contains marker,
// returning the text after it up to the next space (the listen address).
// A daemon that exits or stays silent for readyTimeout fails the call and
// is reaped before it returns.
func startDaemon(cmd *exec.Cmd, marker string, readyTimeout time.Duration) (*child, string, error) {
	ready := make(chan string, 1) // one send: the first matching line
	var once sync.Once
	ch, err := startChild(cmd, func(line string) {
		if i := strings.Index(line, marker); i >= 0 {
			rest := line[i+len(marker):]
			if j := strings.IndexByte(rest, ' '); j >= 0 {
				rest = rest[:j]
			}
			once.Do(func() { ready <- rest })
		}
	})
	if err != nil {
		return nil, "", err
	}
	select {
	case addr := <-ready:
		return ch, addr, nil
	case <-ch.done:
		return nil, "", fmt.Errorf("%s exited before it was ready: %v\n%s", cmd.Path, ch.err, ch.stderr)
	case <-time.After(readyTimeout):
		ch.kill()
		return nil, "", fmt.Errorf("%s: %w (%v)\n%s", cmd.Path, errNotReady, readyTimeout, ch.stderr)
	}
}
