// Command seedfleetd is the carrier fleet aggregation server: the SEED
// carrier-side plugin (§5.3/§6) as a networked service. Devices upload
// sealed learning-record blobs and failure reports over the fleet wire
// protocol; seedfleetd folds them into the collaborative online-learning
// model, each device's traffic on its home shard, and answers model
// queries with sealed suggestions.
//
// Usage:
//
//	seedfleetd [-addr HOST:PORT] [-shards N] [-master HEX32]
//	           [-journal DIR] [-force-empty]
//
// The queue depth (256 waiting requests per shard), frame limit,
// backpressure hint, compaction threshold (4 MiB of journal per shard) and
// connection read/write deadlines are constants of package fleet.
// -shards below 1 is a usage error (exit 2); the library would silently
// replace it with its default.
//
// Durability: there are two states. Without -journal the model lives in
// memory and ends with the process. -journal DIR enables the
// crash-tolerant tier — every acked upload is group-commit fsync'd to a
// per-shard journal before the ack leaves, so even SIGKILL replays to the
// exact pre-crash model (and the exact envelope counters, so client
// retries dedup). Damaged durable state refuses startup; -force-empty
// quarantines it as *.corrupt and starts empty instead.
//
// One seedfleetd is the whole tier: there is no cluster. The
// kill-and-restart campaign in internal/fleet (go test -run TestCampaign)
// kills a journaled server under concurrent load and restarts it over its
// journal.
//
// SIGINT/SIGTERM drains gracefully: in-flight round trips complete, every
// request already read off a connection is folded and answered, a journal
// is compacted (the next start replays nothing), and the process exits 0
// after logging "drain complete".
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"github.com/seed5g/seed/internal/fleet"
)

func main() { os.Exit(run()) }

// run is the command; it returns the exit status: 2 for a usage error, 1
// when the server cannot start or shut down cleanly.
func run() int {
	var (
		addr       = flag.String("addr", "127.0.0.1:7316", "TCP listen address (\":0\" picks a free port)")
		shards     = flag.Int("shards", 4, "shards the devices are split over, each served under its own lock and with its own journal")
		master     = flag.String("master", "", "fleet master key, 32 hex digits (default: built-in dev key)")
		journalDir = flag.String("journal", "", "durable journal directory (crash-tolerant tier; unset: in-memory only)")
		forceEmpty = flag.Bool("force-empty", false, "quarantine damaged durable state and start empty instead of refusing")
	)
	flag.Parse()
	if *shards < 1 {
		fmt.Fprintf(os.Stderr, "seedfleetd: -shards %d: need at least 1 shard\n", *shards)
		return 2
	}

	cfg := fleet.ServerConfig{
		Addr:       *addr,
		Shards:     *shards,
		JournalDir: *journalDir,
		ForceEmpty: *forceEmpty,
	}
	if *master != "" {
		k, err := fleet.ParseMasterKey(*master)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		cfg.MasterKey = k
	}
	srv := fleet.NewServer(cfg)
	if err := srv.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "seedfleetd:", err)
		return 1
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	if err := srv.Shutdown(); err != nil {
		fmt.Fprintln(os.Stderr, "seedfleetd: shutdown:", err)
		return 1
	}
	return 0
}
