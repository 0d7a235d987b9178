package fleet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/seed5g/seed/internal/cause"
)

// FuzzReadFrame feeds arbitrary byte streams to the frame decoder. The
// decoder faces raw TCP input from untrusted devices, so it must never
// panic and never allocate past DefaultMaxFrame; valid frames must
// round-trip.
// The same bytes then arrive as the response stream of a multiplexed
// client connection with requests in flight (checkMuxReader): never a
// panic, never a response delivered to the wrong waiter.
func FuzzReadFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendFrame(nil, Frame{Type: TAck}))
	f.Add(AppendFrame(nil, Frame{Type: TUpload, Payload: AppendSealedPayload(nil, "310170000000001", []byte{1, 2, 3})}))
	f.Add(AppendFrame(nil, Frame{Type: TRetryAfter, Payload: RetryAfterPayload(25)}))
	f.Add([]byte{0x5E, 0xED, 1, byte(TUpload), 0xFF, 0xFF, 0xFF, 0xFF}) // 4GiB length claim
	f.Add([]byte{0x5E, 0xED, 2, 0, 0, 0, 0, 0})                         // wrong version
	f.Add([]byte{0xDE, 0xAD, 1, 0, 0, 0, 0, 0})                         // wrong magic
	// Response streams: more frames than waiters, and a good frame before a bad one.
	f.Add(bytes.Repeat(AppendFrame(nil, Frame{Type: TAck}), 6))
	f.Add(append(AppendFrame(nil, Frame{Type: TSuggest, Payload: []byte{7}}), 0x5E, 0xED, 9, 0, 0, 0, 0, 0))

	f.Fuzz(func(t *testing.T, data []byte) {
		checkMuxReader(t, data)
		fr, err := ReadFrame(bytes.NewReader(data), DefaultMaxFrame)
		if err != nil {
			return
		}
		if len(fr.Payload) > DefaultMaxFrame {
			t.Fatalf("decoder returned %d bytes past the %d limit", len(fr.Payload), DefaultMaxFrame)
		}
		// A decoded frame re-encodes to a prefix of the input stream.
		enc := AppendFrame(nil, fr)
		if !bytes.HasPrefix(data, enc) {
			t.Fatalf("re-encoding is not a prefix of the input: in=%x enc=%x", data, enc)
		}
	})
}

// FuzzParseSealedPayload checks the upload/report payload parser: no
// panics, and accepted payloads re-encode to the same bytes.
func FuzzParseSealedPayload(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add(AppendSealedPayload(nil, "310170000000001", []byte{9, 9}))
	f.Add(AppendSealedPayload(nil, "x", nil))

	f.Fuzz(func(t *testing.T, data []byte) {
		imsi, sealed, err := ParseSealedPayload(data)
		if err != nil {
			return
		}
		if !bytes.Equal(AppendSealedPayload(nil, imsi, sealed), data) {
			t.Fatalf("round trip diverged for %x", data)
		}
	})
}

// FuzzParseQueryPayload checks the query payload parser the same way.
func FuzzParseQueryPayload(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendQueryPayload(nil, "310170000000001", cause.MM(150)))
	f.Add(AppendQueryPayload(nil, "", cause.SM(200)))

	f.Fuzz(func(t *testing.T, data []byte) {
		imsi, c, err := ParseQueryPayload(data)
		if err != nil {
			return
		}
		if !bytes.Equal(AppendQueryPayload(nil, imsi, c), data) {
			t.Fatalf("round trip diverged for %x", data)
		}
	})
}

// FuzzParseCounterTable checks the counter-table codec that shard
// snapshots and legacy jInstall journal records share: no panic, a count
// of entries the bytes cannot hold refused before anything is allocated
// for them, and an accepted table followed by the bytes after it
// re-encodes to the input.
func FuzzParseCounterTable(f *testing.F) {
	entry := func(imsi string, send, recv [2]uint32) []byte {
		return AppendCounterTable(nil, []CounterEntry{{IMSI: imsi, Send: send, Recv: recv}})[4:]
	}
	a, b := entry("001010000000001", [2]uint32{0, 3}, [2]uint32{4, 0}), entry("001010000000002", [2]uint32{}, [2]uint32{9, 0})
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	one, two := []byte{0, 0, 0, 1}, []byte{0, 0, 0, 2}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF}) // 2³²−1 entries claimed in no bytes
	f.Add(cat(two, a, b))                 // sorted
	f.Add(cat(two, b, a))                 // out of IMSI order
	f.Add(cat(one, a, []byte{7}))         // trailing byte
	f.Add(cat(two, a))                    // truncated
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, rest, err := cutCounterTable(data)
		exact, exactErr := ParseCounterTable(data)
		// A count the bytes cannot hold is refused. The check runs before
		// the entries' slice is made: without it, the 2³²−1 seed asks for
		// a slice of 128 GiB and the run dies.
		if len(data) >= 4 && uint64(binary.BigEndian.Uint32(data)) > uint64((len(data)-4)/minCounterEntry) && err == nil {
			t.Fatalf("a table claiming %d entries in %d bytes was accepted", binary.BigEndian.Uint32(data), len(data)-4)
		}
		if (exactErr == nil) != (err == nil && len(rest) == 0) {
			t.Fatalf("ParseCounterTable err=%v, cutCounterTable err=%v with %d bytes left", exactErr, err, len(rest))
		}
		if err != nil {
			return
		}
		if enc := append(AppendCounterTable(nil, entries), rest...); !bytes.Equal(enc, data) {
			t.Fatalf("re-encoding differs: in=%x enc=%x", data, enc)
		}
		if exactErr == nil && len(exact) != len(entries) {
			t.Fatalf("ParseCounterTable read %d entries, cutCounterTable %d", len(exact), len(entries))
		}
	})
}

// FuzzRecoverShard restores a shard from arbitrary journal and snapshot
// bytes. Recovery never panics, never fails under ForceEmpty, and without
// it either refuses with errJournalCorrupt or recovers the same model and
// counters twice in a row. The seeds are the durable-v1 fixture's shard 0:
// real sealed records, so mutations reach apply and not only the framing.
func FuzzRecoverShard(f *testing.F) {
	journal, err := os.ReadFile(filepath.Join("testdata", "durable-v1", "shard-0.journal"))
	if err != nil {
		f.Fatal(err)
	}
	snap, err := os.ReadFile(filepath.Join("testdata", "durable-v1", "shard-0.snap"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(journal, snap)
	f.Add(journal, []byte(nil))
	f.Add(journal[:len(journal)-3], snap) // torn tail
	f.Add([]byte(nil), snap)
	f.Add([]byte(nil), []byte(nil))
	f.Fuzz(func(t *testing.T, journal, snap []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(journalPath(dir, 0), journal, 0o644); err != nil {
			t.Fatal(err)
		}
		if len(snap) > 0 {
			if err := os.WriteFile(snapshotPath(dir, 0), snap, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		restore := func(forceEmpty bool) (string, error) {
			srv, _, err := restoreServer(ServerConfig{Shards: 1, JournalDir: dir, ForceEmpty: forceEmpty})
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%x\n%s", srv.Model(), envCounters(srv)), nil
		}
		first, err := restore(false)
		switch {
		case err != nil && !errors.Is(err, errJournalCorrupt):
			t.Fatalf("refused without errJournalCorrupt: %v", err)
		case err == nil:
			if second, err := restore(false); err != nil || second != first {
				t.Fatalf("second recovery differs (err=%v):\n%s\nvs\n%s", err, first, second)
			}
		}
		if _, err := restore(true); err != nil {
			t.Fatalf("ForceEmpty recovery failed: %v", err)
		}
	})
}
