package main

import (
	"flag"
	"os"
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
