package main

import (
	"flag"
	"os"
	"strings"
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

// seedfleetdStderr is seedfleetd with its standard error captured.
func seedfleetdStderr(t *testing.T, args ...string) (int, string) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stderr := os.Stderr
	os.Stderr = f
	code := seedfleetd(args...)
	os.Stderr = stderr
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return code, string(out)
}

// The cluster flags are checked before the server listens: a malformed
// member list and a cluster flag without -cluster are usage errors (exit
// 2); a member list without this node's ID, or naming other nodes only,
// fails the server's start (exit 1) with the reason, before the
// unlistenable address would.
func TestClusterFlags(t *testing.T) {
	const unlistenable = "127.0.0.1:-1"
	for _, tc := range []struct {
		args []string
		code int
		says string
	}{
		{[]string{"-cluster", "n0", "-node-id", "n0"}, 2, "bad node"},
		{[]string{"-cluster", "n0=127.0.0.1:1,n0=127.0.0.1:2", "-node-id", "n0"}, 2, "duplicate node id"},
		{[]string{"-node-id", "n0"}, 2, "-node-id needs -cluster"},
		{[]string{"-epoch", "3"}, 2, "-epoch needs -cluster"},
		{[]string{"-cluster", "n0=127.0.0.1:1"}, 1, "requires NodeID"},
		{[]string{"-cluster", "n0=127.0.0.1:1,n1=127.0.0.1:2", "-node-id", "n2"}, 1, `node "n2" not in cluster map`},
	} {
		code, stderr := seedfleetdStderr(t, append([]string{"-addr", unlistenable}, tc.args...)...)
		if code != tc.code || !strings.Contains(stderr, tc.says) {
			t.Errorf("seedfleetd %v exited %d saying %q, want %d saying %q", tc.args, code, stderr, tc.code, tc.says)
		}
	}
}
