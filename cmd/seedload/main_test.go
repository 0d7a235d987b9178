package main

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"github.com/seed5g/seed/internal/workload"
)

// seedload calls run as the command line would: run registers its flags on
// the process-wide flag set, so each call gets a new one.
func seedload(args ...string) int {
	osArgs := os.Args
	defer func() { os.Args = osArgs }()
	os.Args = append([]string{"seedload"}, args...)
	flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	return run()
}

// A fleet with no device or no worker to drive it is a usage error, caught
// before the fleet is generated or the server is dialled.
func TestRejectsEmptyFleet(t *testing.T) {
	spec := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(spec, workload.MarshalSpec(workload.DefaultSpec()), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-addr", "127.0.0.1:1", "-devices", "10", "-testbed", "0", "-workers", "0"},
		{"-addr", "127.0.0.1:1", "-devices", "10", "-testbed", "0", "-workers", "-2"},
		{"-addr", "127.0.0.1:1", "-devices", "0", "-spec", spec},
		{"-addr", "127.0.0.1:1", "-devices", "0", "-testbed", "0"},
	} {
		if got := seedload(args...); got != 2 {
			t.Errorf("seedload %v exited %d, want 2", args, got)
		}
	}
}
