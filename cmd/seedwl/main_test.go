package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"github.com/seed5g/seed/internal/workload"
)

// seedwl calls run as the command line would and returns the exit status
// and what the run printed on stdout. run registers its flags on the
// process-wide flag set, so each call gets a new one.
func seedwl(t *testing.T, args ...string) (int, []byte) {
	t.Helper()
	out, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	stdout := os.Stdout
	os.Stdout = out
	flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	status := run(args)
	os.Stdout = stdout
	printed, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return status, printed
}

// The README's first two workload commands: -dumpspec prints the built-in
// spec as a file -spec reads back, and a run over that file prints what
// the run over the built-in spec prints, corpus and summary line alike.
func TestDumpedSpecRunsAsBuiltIn(t *testing.T) {
	status, dumped := seedwl(t, "-dumpspec")
	if status != 0 {
		t.Fatalf("seedwl -dumpspec exited %d", status)
	}
	sp, err := workload.ParseSpec(dumped)
	if err != nil {
		t.Fatalf("-dumpspec output does not parse: %v", err)
	}
	if err := sp.Validate(); err != nil {
		t.Fatalf("-dumpspec output does not validate: %v", err)
	}
	if want := workload.MarshalSpec(workload.DefaultSpec()); !bytes.Equal(dumped, want) {
		t.Fatal("-dumpspec output is not the built-in spec")
	}
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, dumped, 0o644); err != nil {
		t.Fatal(err)
	}
	status, builtIn := seedwl(t, "-run", "60", "-out", "-")
	if status != 0 {
		t.Fatalf("seedwl -run 60 exited %d", status)
	}
	status, fromFile := seedwl(t, "-spec", path, "-run", "60", "-out", "-")
	if status != 0 {
		t.Fatalf("seedwl -spec %s -run 60 exited %d", path, status)
	}
	if !bytes.Equal(fromFile, builtIn) {
		t.Errorf("-spec of the dumped spec printed %d bytes, the built-in spec %d, and they differ", len(fromFile), len(builtIn))
	}
}
