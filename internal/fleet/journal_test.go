package fleet

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/seed5g/seed/internal/core"
	"github.com/seed5g/seed/internal/crypto5g"
)

// startJournalServer runs a quiet durable server; unlike startServer the
// caller controls shutdown (crash tests Kill() explicitly).
func startJournalServer(t *testing.T, cfg ServerConfig) (*Server, *Client) {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	srv := NewServer(cfg)
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	return srv, NewClient(ClientConfig{Addr: srv.Addr().String(), Conns: 2})
}

// restoreServer builds an unstarted server and restores each of its shards
// from cfg.JournalDir, as Start does before it opens the journals; the
// files are left as they were.
func restoreServer(cfg ServerConfig) (*Server, []shardRecovery, error) {
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	srv := NewServer(cfg)
	recs := make([]shardRecovery, len(srv.shards))
	for i, sh := range srv.shards {
		rec, err := sh.restore()
		if err != nil {
			return nil, nil, err
		}
		recs[i] = rec
	}
	return srv, recs, nil
}

// counterState maps each subscriber to its envelope counters (sendUp,
// sendDn, recvUp, recvDn). Read it only while no connection is served.
func counterState(srv *Server) map[string][4]uint32 {
	out := make(map[string][4]uint32)
	for _, sh := range srv.shards {
		for imsi, e := range sh.envs {
			send, recv := e.Counters()
			out[imsi] = [4]uint32{send[crypto5g.Uplink], send[crypto5g.Downlink], recv[crypto5g.Uplink], recv[crypto5g.Downlink]}
		}
	}
	return out
}

// envCounters lists counterState, one "imsi sendUp sendDn recvUp recvDn"
// line per subscriber in IMSI order.
func envCounters(srv *Server) string {
	var lines []string
	for imsi, c := range counterState(srv) {
		lines = append(lines, fmt.Sprintf("%s %d %d %d %d\n", imsi, c[0], c[1], c[2], c[3]))
	}
	sort.Strings(lines)
	return strings.Join(lines, "")
}

// TestJournalKillRecoversExactModelAndDedup is the core durability claim:
// SIGKILL the server (no drain, no snapshot), restart on the same journal
// dir, and the model is byte-identical — and a client retrying the very
// uploads that were acked pre-crash gets duplicate acks, not double folds.
func TestJournalKillRecoversExactModelAndDedup(t *testing.T) {
	dir := t.TempDir()
	cfg := ServerConfig{Shards: 3, JournalDir: dir}
	srv1, cl1 := startJournalServer(t, cfg)

	const devices = 30
	baseline := core.Records{}
	type sent struct {
		imsi   string
		sealed []byte
	}
	var sentAll []sent
	for i := 0; i < devices; i++ {
		recs := deviceRecords(i)
		baseline.Merge(recs)
		dev := NewSimDevice(DefaultMasterKey, fmt.Sprintf("00103%010d", i))
		sealed, err := dev.SealRecords(core.MarshalRecords(recs))
		if err == nil {
			err = cl1.UploadRecords(dev.IMSI, sealed)
		}
		if err != nil {
			t.Fatalf("device %d: %v", i, err)
		}
		sentAll = append(sentAll, sent{dev.IMSI, sealed})
	}
	model1, err := cl1.FetchModel()
	if err != nil {
		t.Fatal(err)
	}
	cl1.Close()
	srv1.Kill() // no drain snapshot — recovery must come from the journal

	srv2, cl2 := startJournalServer(t, cfg)
	defer func() { cl2.Close(); _ = srv2.Shutdown() }()
	if !bytes.Equal(srv2.Model(), model1) {
		t.Fatal("post-crash model differs from pre-crash model")
	}
	if !bytes.Equal(srv2.Model(), MarshalModel(baseline)) {
		t.Fatal("post-crash model differs from sequential baseline")
	}

	// Retry every pre-crash upload verbatim: all must dedup.
	for _, s := range sentAll {
		if err := cl2.UploadRecords(s.imsi, s.sealed); err != nil {
			t.Fatalf("post-crash retry for %s: %v", s.imsi, err)
		}
	}
	if !bytes.Equal(srv2.Model(), model1) {
		t.Fatal("post-crash retries changed the model (dedup state lost)")
	}
	st := srv2.Stats()
	if st.Duplicates != devices {
		t.Fatalf("want %d duplicates, got %d", devices, st.Duplicates)
	}
	if st.ReplayedRecords == 0 {
		t.Fatal("recovery replayed nothing — the test exercised no journal path")
	}
}

// TestJournalReplayIdempotent recovers the same shard directory twice and
// requires bit-identical state both times — replay must be a pure
// function of the files.
func TestJournalReplayIdempotent(t *testing.T) {
	dir := t.TempDir()
	cfg := ServerConfig{Shards: 2, JournalDir: dir}
	srv, cl := startJournalServer(t, cfg)
	for i := 0; i < 20; i++ {
		dev := NewSimDevice(DefaultMasterKey, fmt.Sprintf("00104%010d", i))
		sealed, _ := dev.SealRecords(core.MarshalRecords(deviceRecords(i)))
		if err := cl.UploadRecords(dev.IMSI, sealed); err != nil {
			t.Fatal(err)
		}
	}
	cl.Close()
	srv.Kill()

	snapshotState := func() (string, string) {
		srv, _, err := restoreServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return string(srv.Model()), envCounters(srv)
	}
	m1, c1 := snapshotState()
	m2, c2 := snapshotState()
	if m1 != m2 {
		t.Fatal("two replays of the same journal produced different models")
	}
	if c1 != c2 {
		t.Fatal("two replays of the same journal produced different counters")
	}
}

// TestJournalCrashMidCompaction simulates dying between the snapshot
// rename and the journal truncate: both files cover the same records.
// Replay must skip the snapshot-covered records instead of double-folding.
func TestJournalCrashMidCompaction(t *testing.T) {
	dir := t.TempDir()
	cfg := ServerConfig{Shards: 1, JournalDir: dir}
	srv, cl := startJournalServer(t, cfg)
	baseline := core.Records{}
	for i := 0; i < 12; i++ {
		recs := deviceRecords(i)
		baseline.Merge(recs)
		dev := NewSimDevice(DefaultMasterKey, fmt.Sprintf("00105%010d", i))
		sealed, _ := dev.SealRecords(core.MarshalRecords(recs))
		if err := cl.UploadRecords(dev.IMSI, sealed); err != nil {
			t.Fatal(err)
		}
	}
	cl.Close()

	// Write the compaction snapshot by hand — covering every journaled
	// record — but "crash" before the truncate: the journal keeps them all.
	sh := srv.shards[0]
	if err := writeShardSnapshot(dir, 0, sh.jr.nextSeq-1, sh.counters(), MarshalModel(sh.model)); err != nil {
		t.Fatal(err)
	}
	srv.Kill()

	restored, recs, err := restoreServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rec := recs[0]; rec.Replayed != 0 || rec.Skipped == 0 {
		t.Fatalf("snapshot-covered records were not skipped: replayed=%d skipped=%d", rec.Replayed, rec.Skipped)
	}
	if !bytes.Equal(restored.Model(), MarshalModel(baseline)) {
		t.Fatal("crash mid-compaction double-folded or lost records")
	}

	// A full server restart over the same state must also come up clean.
	srv2, cl2 := startJournalServer(t, cfg)
	defer func() { cl2.Close(); _ = srv2.Shutdown() }()
	if !bytes.Equal(srv2.Model(), MarshalModel(baseline)) {
		t.Fatal("restarted server model differs after crash mid-compaction")
	}
}

// TestJournalTornTailTruncated crashes "mid-append": a partial record at
// the journal tail must be truncated away silently (it was never acked)
// while every complete record replays.
func TestJournalTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	cfg := ServerConfig{Shards: 1, JournalDir: dir}
	srv, cl := startJournalServer(t, cfg)
	dev := NewSimDevice(DefaultMasterKey, "001060000000001")
	sealed, _ := dev.SealRecords(core.MarshalRecords(deviceRecords(3)))
	if err := cl.UploadRecords(dev.IMSI, sealed); err != nil {
		t.Fatal(err)
	}
	model1, _ := cl.FetchModel()
	cl.Close()
	srv.Kill()

	// Append half a record: a plausible header claiming more bytes than
	// follow.
	f, err := os.OpenFile(journalPath(dir, 0), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x00, 0x00, 0x01, 0x00, 0xde, 0xad, 0xbe, 0xef, 0x01, 0x02}); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()

	srv2, cl2 := startJournalServer(t, cfg)
	defer func() { cl2.Close(); _ = srv2.Shutdown() }()
	if !bytes.Equal(srv2.Model(), model1) {
		t.Fatal("torn tail lost acked records")
	}
	// And the journal must be usable for new appends after the truncate.
	dev2 := NewSimDevice(DefaultMasterKey, "001060000000002")
	sealed2, _ := dev2.SealRecords(core.MarshalRecords(deviceRecords(4)))
	if err := cl2.UploadRecords(dev2.IMSI, sealed2); err != nil {
		t.Fatal(err)
	}
}

// TestJournalCorruptRecordRefusesStart flips a byte inside a committed
// record: startup must refuse with a descriptive error, and -force-empty
// must quarantine the file and come up empty instead.
func TestJournalCorruptRecordRefusesStart(t *testing.T) {
	dir := t.TempDir()
	cfg := ServerConfig{Shards: 1, JournalDir: dir, Logf: func(string, ...any) {}}
	srv, cl := startJournalServer(t, cfg)
	for i := 0; i < 4; i++ {
		dev := NewSimDevice(DefaultMasterKey, fmt.Sprintf("00107%010d", i))
		sealed, _ := dev.SealRecords(core.MarshalRecords(deviceRecords(i)))
		if err := cl.UploadRecords(dev.IMSI, sealed); err != nil {
			t.Fatal(err)
		}
	}
	cl.Close()
	srv.Kill()

	jp := journalPath(dir, 0)
	data, err := os.ReadFile(jp)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 32 {
		t.Fatalf("journal unexpectedly small: %d bytes", len(data))
	}
	// Flip a byte inside the FIRST record's payload: a complete record whose
	// CRC no longer matches. (Flipping a length header instead can mimic a
	// torn tail, which is deliberately tolerated.)
	data[journalHeaderLen+4] ^= 0xFF
	if err := os.WriteFile(jp, data, 0o644); err != nil {
		t.Fatal(err)
	}

	cfg.Addr = "127.0.0.1:0"
	srv2 := NewServer(cfg)
	err = srv2.Start()
	if err == nil {
		_ = srv2.Shutdown()
		t.Fatal("corrupt journal accepted")
	}
	for _, want := range []string{"CRC", "force-empty"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}

	cfg.ForceEmpty = true
	srv3 := NewServer(cfg)
	if err := srv3.Start(); err != nil {
		t.Fatalf("force-empty start: %v", err)
	}
	defer func() { _ = srv3.Shutdown() }()
	if len(srv3.Model()) != 0 {
		t.Fatal("force-empty started with a non-empty model")
	}
	if _, err := os.Stat(jp + ".corrupt"); err != nil {
		t.Fatalf("damaged journal not quarantined: %v", err)
	}
}

// TestSnapshotCorruptRefusesStart damages the compaction snapshot the same
// way.
func TestSnapshotCorruptRefusesStart(t *testing.T) {
	dir := t.TempDir()
	cfg := ServerConfig{Shards: 1, JournalDir: dir, Logf: func(string, ...any) {}}
	srv, cl := startJournalServer(t, cfg)
	dev := NewSimDevice(DefaultMasterKey, "001080000000001")
	sealed, _ := dev.SealRecords(core.MarshalRecords(deviceRecords(1)))
	if err := cl.UploadRecords(dev.IMSI, sealed); err != nil {
		t.Fatal(err)
	}
	cl.Close()
	// A graceful drain compacts, producing a snapshot file.
	if err := srv.Shutdown(); err != nil {
		t.Fatal(err)
	}

	sp := snapshotPath(dir, 0)
	data, err := os.ReadFile(sp)
	if err != nil {
		t.Fatalf("no snapshot after a drain: %v", err)
	}
	data[len(data)-5] ^= 0xFF
	if err := os.WriteFile(sp, data, 0o644); err != nil {
		t.Fatal(err)
	}

	cfg.Addr = "127.0.0.1:0"
	srv2 := NewServer(cfg)
	if err := srv2.Start(); err == nil {
		_ = srv2.Shutdown()
		t.Fatal("corrupt snapshot accepted")
	} else if !strings.Contains(err.Error(), "snapshot") {
		t.Fatalf("error %q does not name the snapshot", err)
	}

	cfg.ForceEmpty = true
	srv3 := NewServer(cfg)
	if err := srv3.Start(); err != nil {
		t.Fatalf("force-empty start: %v", err)
	}
	defer func() { _ = srv3.Shutdown() }()
	if _, err := os.Stat(sp + ".corrupt"); err != nil {
		t.Fatalf("damaged snapshot not quarantined: %v", err)
	}
}

// TestJournalCleanShutdownReplaysNothing: a drained shutdown leaves a
// snapshot + empty journal, so the next start replays zero records, does
// NOT burn the downlink recovery skip, and keeps folding new uploads.
func TestJournalCleanShutdownReplaysNothing(t *testing.T) {
	dir := t.TempDir()
	cfg := ServerConfig{Shards: 2, JournalDir: dir}
	srv, cl := startJournalServer(t, cfg)
	dev := NewSimDevice(DefaultMasterKey, "001090000000001")
	sealed, _ := dev.SealRecords(core.MarshalRecords(deviceRecords(2)))
	if err := cl.UploadRecords(dev.IMSI, sealed); err != nil {
		t.Fatal(err)
	}
	model1, _ := cl.FetchModel()
	cl.Close()
	if err := srv.Shutdown(); err != nil {
		t.Fatal(err)
	}

	srv2, cl2 := startJournalServer(t, cfg)
	defer func() { cl2.Close(); _ = srv2.Shutdown() }()
	if !bytes.Equal(srv2.Model(), model1) {
		t.Fatal("clean shutdown lost the model")
	}
	if st := srv2.Stats(); st.ReplayedRecords != 0 {
		t.Fatalf("clean shutdown still replayed %d records", st.ReplayedRecords)
	}
	// The recovered envelope must NOT have the downlink skip: its send
	// counter survives exactly, so a pre-shutdown device keeps its sync.
	sh := srv2.homeShard(dev.IMSI)
	e := sh.envs[dev.IMSI]
	if e == nil {
		t.Fatal("envelope state not restored by clean shutdown")
	}
	send, _ := e.Counters()
	if send[crypto5g.Downlink] >= downlinkRecoverySkip {
		t.Fatal("clean shutdown burned the downlink recovery skip")
	}

	// The restarted server keeps learning on top of the restored model.
	dev2 := NewSimDevice(DefaultMasterKey, "001090000000002")
	sealed2, _ := dev2.SealRecords(core.MarshalRecords(deviceRecords(3)))
	if err := cl2.UploadRecords(dev2.IMSI, sealed2); err != nil {
		t.Fatal(err)
	}
	if model2, err := cl2.FetchModel(); err != nil || bytes.Equal(model2, model1) {
		t.Fatalf("post-restart upload did not change the model (err=%v)", err)
	}
}

// TestJournalGroupCommitBatches pins leader/follower group commit on a
// controlled fsync: one connection's upload is the first group, its fsync
// held in the server's sync hook, while the other 63 arrive on a second
// connection in one Write, fit the connection's read buffer, and fold
// into the next group meanwhile — 64 records, 2 fsyncs, whatever the
// scheduler does.
func TestJournalGroupCommitBatches(t *testing.T) {
	const n = 64
	srv := quietServer(t, ServerConfig{Shards: 1, JournalDir: t.TempDir()})
	hook, entered, release := parkFirstSync()
	srv.syncHook = hook
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Shutdown() }()
	frames := make([]Frame, n)
	for i := range frames {
		frames[i] = uploadFrame(t, fmt.Sprintf("00110%010d", i), i)
	}
	first, second := dialRaw(t, srv), dialRaw(t, srv)
	writeFrames(t, first, frames[0])
	<-entered // group one is that single record, its fsync held
	writeFrames(t, second, frames[1:]...)
	waitFor(t, "the other 63 uploads to fold", func() bool { return srv.uploads.Load() == n })
	close(release)
	checkTypes(t, "first connection", readFrames(t, bufio.NewReader(first), 1), TAck)
	checkTypes(t, "second connection", readFrames(t, bufio.NewReader(second), n-1), acks(n-1)...)
	if st := srv.Stats(); st.JournalRecords != n || st.JournalSyncs != 2 {
		t.Fatalf("records=%d syncs=%d, want %d records in 2 syncs", st.JournalRecords, st.JournalSyncs, n)
	}
}

// TestRecoverShardFreshDirectory: recovering a directory with no snapshot
// and no journal yields an empty shard whose first record gets sequence 1.
func TestRecoverShardFreshDirectory(t *testing.T) {
	srv, recs, err := restoreServer(ServerConfig{Shards: 1, JournalDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if rec := recs[0]; len(srv.shards[0].envs) != 0 || len(srv.shards[0].model) != 0 || rec.Replayed != 0 || rec.NextSeq != 1 {
		t.Fatalf("fresh dir recovery: %+v", rec)
	}
}

// TestDurableV1FixtureRecovers starts a server on a copy of a journal
// directory an older seedfleetd wrote (testdata/durable-v1/README.md says
// how): a compacted snapshot per shard plus a journal tail of uploads,
// reports and a counter install. The recovered model and envelope counters
// must equal the ones that binary recovered, byte for byte.
func TestDurableV1FixtureRecovers(t *testing.T) {
	const (
		wantModel    = "a5abf2c5d05f9ca64545cd691074fbcccc9f06cbd649828ed0a7d156138aa384"
		wantCounters = "8b7323fcbde9018329d98ccdda4f735b4fab0e4fc6392829a5779f568df3c59a"
	)
	dir := t.TempDir()
	for _, name := range []string{"shard-0.snap", "shard-0.journal", "shard-1.snap", "shard-1.journal"} {
		data, err := os.ReadFile(filepath.Join("testdata", "durable-v1", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	srv, cl := startJournalServer(t, ServerConfig{Shards: 2, JournalDir: dir})
	cl.Close()
	defer srv.Kill()
	if st := srv.Stats(); st.ReplayedRecords != 20 {
		t.Fatalf("replayed %d journal records, want 20", st.ReplayedRecords)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(srv.Model())); got != wantModel {
		t.Errorf("model digest %s, want %s", got, wantModel)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(envCounters(srv)))); got != wantCounters {
		t.Errorf("counter digest %s, want %s; counters:\n%s", got, wantCounters, envCounters(srv))
	}
}
