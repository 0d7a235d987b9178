package main

import (
	"flag"
	"os"
	"testing"
)

// seedfleetd calls run as the command line would: run registers its flags
// on the process-wide flag set, so each call gets a new one.
func seedfleetd(args ...string) int {
	osArgs := os.Args
	defer func() { os.Args = osArgs }()
	os.Args = append([]string{"seedfleetd"}, args...)
	flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	return run()
}

// A server with no shard is a usage error, refused before it listens. The
// address cannot be listened on, so a value that got through would end the
// run with a start failure (exit 1) instead of serving.
func TestRejectsEmptyShards(t *testing.T) {
	const unlistenable = "127.0.0.1:-1"
	for _, args := range [][]string{
		{"-shards", "0"},
		{"-shards", "-3"},
	} {
		if got := seedfleetd(append([]string{"-addr", unlistenable}, args...)...); got != 2 {
			t.Errorf("seedfleetd %v exited %d, want 2", args, got)
		}
	}
	if got := seedfleetd("-addr", unlistenable, "-shards", "1"); got != 1 {
		t.Errorf("seedfleetd -shards 1 on %s exited %d, want 1 (start failure)", unlistenable, got)
	}
}
