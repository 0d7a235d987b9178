package main

import (
	"flag"
	"os"
	"testing"

	"github.com/seed5g/seed/internal/fleet"
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
	for _, args := range [][]string{
		{"-addr", "127.0.0.1:1", "-devices", "10", "-testbed", "0", "-workers", "0"},
		{"-addr", "127.0.0.1:1", "-devices", "10", "-testbed", "0", "-workers", "-2"},
		{"-addr", "127.0.0.1:1", "-devices", "0", "-testbed", "0"},
	} {
		if got := seedload(args...); got != 2 {
			t.Errorf("seedload %v exited %d, want 2", args, got)
		}
	}
}

// -master seals every upload under the given fleet key: against a server
// holding that key the run loses nothing and its model matches (exit 0),
// against one on the built-in key no upload opens (exit 1), and a key that
// is not 32 hex digits is a usage error (exit 2).
func TestMasterKey(t *testing.T) {
	const master = "00112233445566778899aabbccddeeff"
	key, err := fleet.ParseMasterKey(master)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		server [16]byte
		want   int
	}{
		{"same key", key, 0},
		{"built-in key", fleet.DefaultMasterKey, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			srv := fleet.NewServer(fleet.ServerConfig{Addr: "127.0.0.1:0", Shards: 1, MasterKey: c.server})
			if err := srv.Start(); err != nil {
				t.Fatal(err)
			}
			defer srv.Kill()
			got := seedload("-addr", srv.Addr().String(), "-devices", "8", "-testbed", "0",
				"-workers", "2", "-master", master)
			if got != c.want {
				t.Errorf("seedload -master %s exited %d, want %d", master, got, c.want)
			}
		})
	}
	if got := seedload("-addr", "127.0.0.1:1", "-devices", "8", "-testbed", "0", "-master", "5eed"); got != 2 {
		t.Errorf("seedload -master 5eed exited %d, want 2", got)
	}
}
