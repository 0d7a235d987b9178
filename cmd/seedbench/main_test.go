package main

import (
	"os"
	"testing"
)

// run registers its flags on the process-wide flag set, so it can be
// called once per test binary: this is the only test that calls it.
func TestRejectsSamplesBelowOne(t *testing.T) {
	os.Args = []string{"seedbench", "-exp", "table4", "-samples", "0"}
	if got := run(); got != 2 {
		t.Fatalf("seedbench -samples 0 exited %d, want 2", got)
	}
}
