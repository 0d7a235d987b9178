package main

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// seedfuzz calls run as the command line would: run registers its flags on
// the process-wide flag set, so each call gets a new one.
func seedfuzz(args ...string) int {
	osArgs := os.Args
	defer func() { os.Args = osArgs }()
	os.Args = append([]string{"seedfuzz"}, args...)
	flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	return run()
}

// A campaign of no cases is a usage error, not a clean campaign: it would
// report "invariants: all held" having checked nothing.
func TestRejectsEmptyCampaign(t *testing.T) {
	for _, n := range []string{"0", "-1"} {
		if got := seedfuzz("-n", n, "-parallel", "1"); got != 2 {
			t.Errorf("seedfuzz -n %s exited %d, want 2", n, got)
		}
	}
	if got := seedfuzz("-seed", "20260806", "-n", "2", "-parallel", "1"); got != 0 {
		t.Errorf("seedfuzz -n 2 exited %d, want 0 (a clean campaign)", got)
	}
}

// -emit-nas and -emit-apdu write the recorded clean traces as seed corpora,
// one file per distinct input; -corpus keeps only violating cases, so a
// clean campaign leaves its directory unmade.
func TestCorpusDirectories(t *testing.T) {
	dir := t.TempDir()
	nasDir, apduDir := filepath.Join(dir, "nas"), filepath.Join(dir, "apdu")
	if got := seedfuzz("-seed", "20260806", "-emit-nas", nasDir, "-emit-apdu", apduDir); got != 0 {
		t.Fatalf("seedfuzz -emit-nas -emit-apdu exited %d, want 0", got)
	}
	for _, d := range []string{nasDir, apduDir} {
		entries, err := os.ReadDir(d)
		if err != nil || len(entries) == 0 {
			t.Errorf("%s: %d seed inputs written (%v), want some", filepath.Base(d), len(entries), err)
		}
	}
	cases := filepath.Join(dir, "cases")
	if got := seedfuzz("-seed", "20260806", "-n", "2", "-parallel", "1", "-corpus", cases); got != 0 {
		t.Fatalf("seedfuzz -corpus exited %d, want 0 (a clean campaign)", got)
	}
	if _, err := os.Stat(cases); !os.IsNotExist(err) {
		t.Errorf("a clean campaign made its -corpus directory (stat: %v)", err)
	}
}
