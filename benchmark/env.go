package main

import (
	"bufio"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// environment is recorded in every result: a number means little without
// the cores, runtime settings and disk behind it.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	N          int    `json:"n"` // min(nproc, 4): workers, shards and connections at "wN"
	GoVersion  string `json:"go_version"`
	GOGC       string `json:"gogc"`
	GOMEMLIMIT string `json:"gomemlimit"`
	Kernel     string `json:"kernel"`
	// JournalFS is the filesystem backing the journal directory.
	JournalFS string `json:"journal_fs"`
	Commit    string `json:"commit"`
}

// scaleWidth is N: as many workers, shards and connections as there are
// cores, capped at four so a result from a big box stays comparable.
func scaleWidth() int {
	n := runtime.NumCPU()
	if n > 4 {
		n = 4
	}
	return n
}

func readEnvironment(root, tmpBase string) environment {
	return environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		N:          scaleWidth(),
		GoVersion:  runtime.Version(),
		GOGC:       envOr("GOGC", "default"),
		GOMEMLIMIT: envOr("GOMEMLIMIT", "default"),
		Kernel:     firstLine("/proc/sys/kernel/osrelease"),
		JournalFS:  filesystemOf(tmpBase),
		Commit:     commitOf(root),
	}
}

func envOr(name, def string) string {
	if v := os.Getenv(name); v != "" {
		return v
	}
	return def
}

func firstLine(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(strings.SplitN(string(b), "\n", 2)[0])
}

// commitOf asks git for the checkout's commit; a checkout that is not a
// repository (an exported tree) has none.
func commitOf(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short=12", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// filesystemOf returns the type and source of the mount holding dir
// ("ext4 /dev/vda1"), from /proc/self/mountinfo: the longest mount point
// that is a prefix of dir wins.
func filesystemOf(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	f, err := os.Open("/proc/self/mountinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	best, bestLen := "unknown", -1
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		// 36 35 98:0 /mnt1 /mnt2 rw,noatime master:1 - ext3 /dev/root rw,errors=continue
		pre, post, ok := strings.Cut(sc.Text(), " - ")
		fields, tail := strings.Fields(pre), strings.Fields(post)
		if !ok || len(fields) < 5 || len(tail) < 2 {
			continue
		}
		mp := fields[4]
		if abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/") {
			if len(mp) > bestLen {
				best, bestLen = tail[0]+" "+tail[1], len(mp)
			}
		}
	}
	return best
}

// diskProbe times the benchmark's own 256-byte append+fsync on a file
// beside the journal directories: the floor under every journaled upload.
// When it moves and nothing else does, the disk changed, not the program.
// The sandbox's disk is shared, and for minutes at a time an fsync costs
// two to five times what it did before — which is why the journaled fleet
// path is read as per-layer metrics and carries no bound.
type diskProbe struct {
	f   *os.File
	buf [256]byte
}

func openDiskProbe(dir string) (*diskProbe, error) {
	f, err := os.CreateTemp(dir, "fsync-probe-")
	if err != nil {
		return nil, err
	}
	return &diskProbe{f: f}, nil
}

// unit does one append+fsync and returns how long it took.
func (p *diskProbe) unit() (time.Duration, error) {
	start := time.Now()
	if _, err := p.f.Write(p.buf[:]); err != nil {
		return 0, err
	}
	if err := p.f.Sync(); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

func (p *diskProbe) close() {
	name := p.f.Name()
	_ = p.f.Close()     // nothing written here is ever read back
	_ = os.Remove(name) // best effort, like every temporary file of the run
}

// fsyncCost is the median of 64 probe units in dir, in microseconds.
func fsyncCost(dir string) (medianUS float64, err error) {
	p, err := openDiskProbe(dir)
	if err != nil {
		return 0, err
	}
	defer p.close()
	units := make([]float64, 64)
	for i := range units {
		d, err := p.unit()
		if err != nil {
			return 0, err
		}
		units[i] = float64(d.Nanoseconds())
	}
	return median(units) / 1e3, nil
}
