package adversary

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"github.com/seed5g/seed"
)

// SaveCase writes a case as indented JSON — the checked-in regression
// corpus format replayed by the package tests.
func SaveCase(path string, c Case) error {
	b, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return fmt.Errorf("adversary: marshal case: %w", err)
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// LoadCase reads one corpus case.
func LoadCase(path string) (Case, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Case{}, err
	}
	var c Case
	if err := json.Unmarshal(b, &c); err != nil {
		return Case{}, fmt.Errorf("adversary: %s: %w", path, err)
	}
	return c, nil
}

// LoadCorpus reads every *.json case under dir, sorted by filename. A
// missing directory is an empty corpus, not an error.
func LoadCorpus(dir string) ([]Case, []string, error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil, nil
	}
	if err != nil {
		return nil, nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".json" {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	cases := make([]Case, 0, len(names))
	for _, n := range names {
		c, err := LoadCase(filepath.Join(dir, n))
		if err != nil {
			return nil, nil, err
		}
		cases = append(cases, c)
	}
	return cases, names, nil
}

// RecordTraces boots one clean SEED-R scenario (attach, data session, one
// diagnosed control-plane failure, recovery) and returns the deduplicated
// NAS frames and command APDUs it observed — the seed corpora for the
// native Go fuzz targets of the codecs, recorded rather than hand-written
// so they stay representative of real flows.
func RecordTraces(seedVal int64) (nasFrames, apdus [][]byte) {
	tb := seed.New(seedVal)
	dev := tb.NewDevice(seed.ModeSEEDR)
	rec := &recorder{}
	tb.Observe(rec)
	dev.Start()
	tb.Advance(30 * time.Second)
	tb.DesyncIdentity(dev)
	tb.SimulateMobility(dev)
	tb.Advance(2 * time.Minute)
	return dedup(append(rec.nasDown, rec.nasUp...)), dedup(rec.apdu)
}

// dedup removes byte-identical frames, preserving first-seen order.
func dedup(frames [][]byte) [][]byte {
	seen := make(map[string]bool, len(frames))
	out := make([][]byte, 0, len(frames))
	for _, f := range frames {
		if !seen[string(f)] {
			seen[string(f)] = true
			out = append(out, f)
		}
	}
	return out
}

// WriteGoFuzzCorpus writes each input as a native `go test fuzz v1` seed
// file under dir (created if needed), named by content hash so re-emission
// is idempotent. Returns how many files were written.
func WriteGoFuzzCorpus(dir string, inputs [][]byte) (int, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	n := 0
	for _, in := range inputs {
		sum := sha256.Sum256(in)
		path := filepath.Join(dir, fmt.Sprintf("seed-%x", sum[:8]))
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(in)) + ")\n"
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}
